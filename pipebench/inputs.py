"""Seeded two-class data sets with a planted five-feature ground truth.

The design mirrors the planted benchmark of the test suite: the first five
columns are +-1 votes whose sum has magnitude at least 3 and decides the
label; every other column mixes two shared latent factors with a weak echo of
the vote sum, so the distractors are mutually redundant and only faintly
label-correlated.  Everything here is plain numpy.
"""

from __future__ import annotations

import numpy as np

INFORMATIVE = 5
MIN_VOTE = 3
ECHO = 0.18
NOISE_RANK = 2


def planted(rng: np.random.Generator, m: int, n: int):
    """An (m, n) matrix and labels in {-1, +1}, half of each class (+1 first on odd m)."""
    need = {1: m - m // 2, -1: m // 2}
    rows, labels = [], []
    while need[1] or need[-1]:
        votes = rng.choice([-1.0, 1.0], size=INFORMATIVE)
        s = votes.sum()
        if abs(s) < MIN_VOTE:
            continue
        lab = 1 if s > 0 else -1
        if need[lab]:
            rows.append(votes)
            labels.append(lab)
            need[lab] -= 1
    vote_block = np.array(rows)
    s_col = vote_block.sum(axis=1, keepdims=True)
    k = n - INFORMATIVE
    latent = rng.normal(0.0, 1.0, size=(m, NOISE_RANK))
    mixing = rng.choice([-1.0, 1.0], size=(NOISE_RANK, k))
    echo_sign = rng.choice([-1.0, 1.0], size=(1, k))
    X = np.hstack([vote_block, latent @ mixing + ECHO * (s_col @ echo_sign)])
    return X, np.array(labels, dtype=np.int64)


def held_out_split(y: np.ndarray, n_test: int):
    """Row indices (train, test) taking the last n_test/2 rows of each class as test."""
    test = np.concatenate([np.flatnonzero(y == v)[-(n_test // 2):] for v in (-1, 1)])
    train = np.setdiff1d(np.arange(y.size), test)
    return train, np.sort(test)


def csv_text(X: np.ndarray, y: np.ndarray) -> str:
    """The CSV layout the command line reads: f1..fn then a +-1 label column."""
    n = X.shape[1]
    row_format = ",".join(["%.12g"] * n)
    lines = [",".join(f"f{j}" for j in range(1, n + 1)) + ",label"]
    for row, label in zip(X.tolist(), y):
        lines.append(row_format % tuple(row) + f",{int(label):+d}")
    return "\n".join(lines) + "\n"
