"""Seeded generator for splice-shaped LIBSVM data.

Rows have 60 integer-valued features in 1..4 (the splice files code one
nucleotide per feature). The label is the sign of a random linear score plus
Gaussian noise with sd 3. The hidden direction is random per seed but its
length is fixed, so the clean score always has sd about 8.7 and every seed
is equally hard: the best linear rule gets about 89% right. Train and test
rows share the hidden hyperplane.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

N_FEATURES = 60
NOISE_SD = 3.0

# (train rows, test rows) per data shape
SHAPES = {
    "splice": (1000, 2175),
    "large": (20000, 100000),
}

# one "index:value" token per (feature, value); values are 1..4
_TOKENS = np.array(
    [[f"{j + 1}:{v}" for v in range(5)] for j in range(N_FEATURES)], dtype=object
)


def draw(rng: np.random.Generator, m: int, w: np.ndarray):
    """m rows of features in 1..4 and their noisy labels under hyperplane w."""
    X = rng.integers(1, 5, size=(m, N_FEATURES))
    score = (X - 2.5) @ w + rng.normal(0.0, NOISE_SD, size=m)
    y = np.where(score > 0.0, 1, -1)
    return X, y


def libsvm_text(X: np.ndarray, y: np.ndarray) -> str:
    tokens = _TOKENS[np.arange(N_FEATURES), X]
    labels = np.where(y > 0, "+1", "-1")
    return "".join(
        f"{lab} {' '.join(row)}\n" for lab, row in zip(labels.tolist(), tokens.tolist())
    )


def generate(shape: str, seed: int):
    """Train and test LIBSVM text for one data shape and seed.

    Returns {"train": (text, X, y), "test": (text, X, y)}; the same
    (shape, seed) always gives the same bytes.
    """
    m_train, m_test = SHAPES[shape]
    rng = np.random.default_rng([seed, m_train])
    w = rng.normal(0.0, 1.0, size=N_FEATURES)
    w *= np.sqrt(N_FEATURES) / np.linalg.norm(w)
    out = {}
    for split, m in (("train", m_train), ("test", m_test)):
        X, y = draw(rng, m, w)
        out[split] = (libsvm_text(X, y), X, y)
    return out


def write_files(shape: str, seed: int, directory: str):
    """Write <shape>.train.svm and <shape>.test.svm under directory.

    Returns ({split: path}, {split: sha256 hex}, {split: (X, y)}).
    """
    paths, digests, arrays = {}, {}, {}
    for split, (text, X, y) in generate(shape, seed).items():
        data = text.encode("ascii")
        path = os.path.join(directory, f"{shape}.{split}.svm")
        with open(path, "wb") as fh:
            fh.write(data)
        paths[split] = path
        digests[split] = hashlib.sha256(data).hexdigest()
        arrays[split] = (X, y)
    return paths, digests, arrays
