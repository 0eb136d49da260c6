"""Filter-style feature scoring baselines: ReliefF and FCBF.

ReliefF scores features by contrasting each sample against its nearest
neighbors of the same and opposite class; a cumulative-mass rule turns the
weights into a selection.  FCBF scores features by symmetrical uncertainty
against the class over equal-frequency discretized values and prunes
redundant features by predominant correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, require_two_classes

_TABLE_CELLS = 1 << 20  # caps one SU block's joint counts at 8 MB


@dataclass(frozen=True)
class DiscreteDataset:
    """Per-feature bin identifiers (0..bins-1 each) plus the original labels."""

    samples: np.ndarray
    bins_per_feature: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.int64, ndmin=2)
        bins = np.array(self.bins_per_feature, dtype=np.int64)
        labels = np.array(self.labels, dtype=np.int64)
        m, n = samples.shape
        if bins.shape != (n,) or labels.shape != (m,):
            raise DataError("inconsistent discrete dataset shapes")
        if np.any(samples < 0) or np.any(samples >= bins[None, :]):
            raise DataError("bin identifiers out of range")
        for arr in (samples, bins, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bins_per_feature", bins)
        object.__setattr__(self, "labels", labels)


def relieff_rank(d: Dataset, k_neighbors: int = 10, seed: int = 42) -> np.ndarray:
    """ReliefF feature weights, one per feature, over all samples as anchors.

    For each anchor, the k nearest same-class and k nearest opposite-class
    neighbors by Manhattan distance adjust every feature weight by the
    range-normalized coordinate difference: hits subtract, misses add, each
    scaled by 1/(M*k).  The seed only breaks exact distance ties, so weights
    land in [-1, 1] regardless of it.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    X = d.samples
    y = d.labels
    M, n = X.shape
    require_two_classes(d)
    for value, count in d.class_counts().items():
        if count <= k_neighbors:
            raise DataError(
                f"class {value:+d} has {count} samples; k_neighbors={k_neighbors} needs more")

    ranges = X.max(axis=0) - X.min(axis=0)
    ranges = np.where(ranges > 0.0, ranges, 1.0)
    tie_rank = np.random.default_rng(seed).permutation(M)

    weights = np.zeros(n)
    scale = 1.0 / (M * k_neighbors)
    diffs = np.empty_like(X)
    for i in range(M):
        np.subtract(X, X[i], out=diffs)
        np.abs(diffs, out=diffs)
        dists = diffs.sum(axis=1)
        order = np.lexsort((tie_rank, dists))
        same = y[order] == y[i]
        hit_order = order[same & (order != i)][:k_neighbors]
        miss_order = order[~same][:k_neighbors]
        weights -= diffs[hit_order].sum(axis=0) / ranges * scale
        weights += diffs[miss_order].sum(axis=0) / ranges * scale

    return weights


def cumulative_fraction_select(weights, fraction: float) -> tuple[int, ...]:
    """Smallest top-weighted prefix whose clamped weights reach `fraction` of the total.

    Features rank by descending weight, ties by ascending index.  Negative
    weights count as zero, and the running sums and the total are added left
    to right in rank order, without compensation.  If every clamped weight is
    zero the single top-ranked feature is returned.  Indices come back in
    ascending order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    weights = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((np.arange(weights.size), -weights))
    cum = np.cumsum(np.maximum(weights[order], 0.0))
    total = cum[-1]
    if total <= 0.0:
        return (int(order[0]),)
    stop = int(np.argmax(cum >= fraction * total - 1e-12 * total))
    return tuple(sorted(order[:stop + 1].tolist()))


def discretize_equal_frequency(d: Dataset, bins: int = 10) -> DiscreteDataset:
    """Quantile-boundary discretization, fitted and applied on `d` itself.

    Duplicate quantile boundaries collapse, so skewed or constant features
    yield fewer than `bins` bins (a constant feature yields one).  A value's
    bin is the dense rank, within its column, of the number of boundaries at
    or below it; a repeated boundary shifts that number but not its rank.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    X = d.samples
    M, n = X.shape
    raw = np.zeros((M, n), dtype=np.int64)
    for b in np.quantile(X, np.arange(1, bins) / bins, axis=0):
        raw += b <= X
    cols = np.arange(n)
    present = np.zeros((bins, n), dtype=np.int64)
    present[raw, cols] = 1
    ids = (np.cumsum(present, axis=0) - 1)[raw, cols]
    return DiscreteDataset(ids, present.sum(axis=0), d.labels)


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of a count matrix (0*log(0) counts as 0).

    Rows are grouped by their number of non-zero counts, so each row's terms
    are summed in their own order over a vector of their own length: the
    result is bit-identical to computing each row on its own.
    """
    nonzero = np.count_nonzero(counts, axis=1)
    out = np.empty(counts.shape[0])
    for width in np.unique(nonzero):
        rows = np.flatnonzero(nonzero == width)
        block = counts[rows]
        p = block[block > 0].reshape(rows.size, width) / block.sum(axis=1, keepdims=True)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def _su(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Symmetrical uncertainty of paired integer-coded columns (base-2 logs).

    `xs` and `ys` are (M, k) code matrices, either one may be (M, 1) to pair
    a single column with k others; entry j of the result is SU(xs_j, ys_j),
    built from the joint table indexed [x, y].  Columns are counted in blocks
    whose tables hold at most `_TABLE_CELLS` cells.
    """
    xs, ys = np.broadcast_arrays(xs, ys)
    k = xs.shape[1]
    nx = int(xs.max()) + 1
    ny = int(ys.max()) + 1
    step = max(1, _TABLE_CELLS // (nx * ny))
    su = np.zeros(k)
    for lo in range(0, k, step):
        x, y = xs[:, lo:lo + step], ys[:, lo:lo + step]
        w = x.shape[1]
        cells = (np.arange(w) * nx + x) * ny + y
        joint = np.bincount(cells.ravel(), minlength=w * nx * ny).reshape(w, nx, ny)
        hx = _entropies(joint.sum(axis=2))
        hy = _entropies(joint.sum(axis=1))
        hxy = _entropies(joint.reshape(w, -1))
        denom = hx + hy
        np.divide(2.0 * (hx + hy - hxy), denom, out=su[lo:lo + w], where=denom > 0.0)
    return np.clip(su, 0.0, 1.0)


def fcbf_select(dd: DiscreteDataset, delta: float = 0.0) -> tuple[int, ...]:
    """Fast correlation-based filter over a discretized dataset.

    Features with SU against the class above `delta` are walked in descending
    relevance (ties by ascending index); each survivor removes any later
    feature it predominates, i.e. any f' with SU(f, f') >= SU(f', class).
    Survivors come back in ascending index order.
    """
    X = dd.samples
    n = X.shape[1]
    _, yi = np.unique(dd.labels, return_inverse=True)
    su_class = _su(X, yi[:, None])
    order = np.lexsort((np.arange(n), -su_class))
    queue = order[su_class[order] > delta]
    survivors = []
    while queue.size:
        f, queue = int(queue[0]), queue[1:]
        survivors.append(f)
        if queue.size:
            queue = queue[_su(X[:, [f]], X[:, queue]) < su_class[queue]]
    return tuple(sorted(survivors))
