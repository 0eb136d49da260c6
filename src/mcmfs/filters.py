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
    """Per-feature bin identifiers (0..bins-1 each) plus the original labels.

    Integer identifiers that int64 holds keep their type, so narrow codes
    stay narrow; any other type (uint64 among them) is converted to int64.
    """

    samples: np.ndarray
    bins_per_feature: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, ndmin=2)
        if samples.dtype.kind not in "iu" or not np.can_cast(samples.dtype, np.int64):
            samples = samples.astype(np.int64)
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

    # Manhattan distances from the upper triangle: |a - b| == |b - a| exactly,
    # and each row sums its n terms in the same order, so D[j, i] == D[i, j].
    D = np.zeros((M, M))
    diffs = np.empty_like(X)
    for i in range(M - 1):
        rest = diffs[:M - i - 1]
        np.subtract(X[i + 1:], X[i], out=rest)
        np.abs(rest, out=rest)
        D[i, i + 1:] = D[i + 1:, i] = rest.sum(axis=1)

    weights = np.zeros(n)
    scale = 1.0 / (M * k_neighbors)
    for i in range(M):
        order = np.lexsort((tie_rank, D[i]))
        same = y[order] == y[i]
        # each class has more than k rows: k hits, then k misses
        near = np.concatenate([order[same & (order != i)][:k_neighbors],
                               order[~same][:k_neighbors]])
        np.abs(X[near] - X[i], out=diffs[:2 * k_neighbors])
        weights -= diffs[:k_neighbors].sum(axis=0) / ranges * scale
        weights += diffs[k_neighbors:2 * k_neighbors].sum(axis=0) / ranges * scale

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
    code = np.min_scalar_type(bins - 1)   # the narrowest type that holds every bin id
    raw = np.zeros((M, n), dtype=code)
    for b in np.quantile(X, np.arange(1, bins) / bins, axis=0):
        raw += b <= X
    present = np.stack([(raw == v).any(axis=0) for v in range(bins)])
    # dense rank: each bin id below a value's that no value takes lowers it by one
    ids = raw.copy()
    for v in range(bins - 1):
        ids -= (raw > v) & ~present[v]
    return DiscreteDataset(ids, present.sum(axis=0), d.labels)


def _plogp(m: int) -> np.ndarray:
    """p * log2(p) at p = c/m for each count c in 0..m (0 at c = 0)."""
    p = np.arange(1, m + 1) / m
    return np.concatenate(([0.0], p * np.log2(p)))


def _entropies(counts: np.ndarray, plogp: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of a count matrix whose rows all sum to m.

    `plogp` is `_plogp(m)`, so each non-zero count's term is looked up, not
    computed.  Rows are ranked by their number of non-zero counts and summed
    one width at a time, so each row's terms are summed in their own order
    over a vector of their own length: the result is bit-identical to
    computing each row on its own.
    """
    nonzero = np.count_nonzero(counts, axis=1)
    order = np.argsort(nonzero, kind="stable")
    ranked = counts[order]
    terms = plogp[ranked[ranked > 0]]
    sums = np.empty(len(order))
    widths, n_rows = np.unique(nonzero, return_counts=True)
    row = term = 0
    for width, rows in zip(widths.tolist(), n_rows.tolist()):
        sums[row:row + rows] = terms[term:term + rows * width].reshape(rows, width).sum(axis=1)
        row, term = row + rows, term + rows * width
    out = np.empty_like(sums)
    out[order] = -sums
    return out


def _joint_counts(xs: np.ndarray, ys: np.ndarray):
    """Joint count tables of paired integer-coded features, in blocks.

    `xs` and `ys` hold one feature per row, (k, M) each, or (1, M) to pair a
    single feature with each of k others.  Yields (rows, table): `table[j]`
    is the (nx, ny) table of pair `rows.start + j`, indexed [x, y].  A
    block's tables hold at most `_TABLE_CELLS` cells.
    """
    k = max(len(xs), len(ys))
    nx = int(xs.max()) + 1
    ny = int(ys.max()) + 1
    step = max(1, _TABLE_CELLS // (nx * ny))
    for lo in range(0, k, step):
        x, y = (v if len(v) == 1 else v[lo:lo + step] for v in (xs, ys))
        w = max(len(x), len(y))
        # one (w, M) buffer: each further temporary costs page faults and memory
        cells = np.add(np.arange(0, w * nx, nx)[:, None], x, dtype=np.intp)
        cells *= ny
        cells += y
        joint = np.bincount(cells.ravel(), minlength=w * nx * ny).reshape(w, nx, ny)
        del cells   # not held while the caller reads the tables
        yield slice(lo, lo + w), joint


def _su(hx, hy, hxy) -> np.ndarray:
    """Symmetrical uncertainty 2(H(x) + H(y) - H(x, y)) / (H(x) + H(y)).

    Clipped to [0, 1]; 0 where H(x) + H(y) is 0.
    """
    denom = hx + hy
    su = np.zeros(np.shape(denom))
    np.divide(2.0 * (denom - hxy), denom, out=su, where=denom > 0.0)
    return np.clip(su, 0.0, 1.0)


def fcbf_select(dd: DiscreteDataset, delta: float = 0.0) -> tuple[int, ...]:
    """Fast correlation-based filter over a discretized dataset.

    Features with SU against the class above `delta` are walked in descending
    relevance (ties by ascending index); each survivor removes any later
    feature it predominates, i.e. any f' with SU(f, f') >= SU(f', class).
    Survivors come back in ascending index order.  Each feature's entropy is
    computed once, in the pass against the class; a survivor's pass counts
    only the joint tables [f, f'].
    """
    M, n = dd.samples.shape
    features = np.ascontiguousarray(dd.samples.T)
    _, yi = np.unique(dd.labels, return_inverse=True)
    plogp = _plogp(M)
    h = np.empty(n)            # H(f)
    h_class = np.empty(n)      # H(f, class)
    for rows, joint in _joint_counts(features, yi[None, :]):
        # class by class: numpy reduces a short last axis row by row, far slower
        h[rows] = _entropies(sum(joint[:, :, c] for c in range(joint.shape[2])), plogp)
        h_class[rows] = _entropies(joint.reshape(len(joint), -1), plogp)
    su_class = _su(h, _entropies(np.bincount(yi)[None, :], plogp), h_class)
    order = np.lexsort((np.arange(n), -su_class))
    queue = order[su_class[order] > delta]
    survivors = []
    while queue.size:
        f, queue = int(queue[0]), queue[1:]
        survivors.append(f)
        if queue.size:
            h_pair = np.empty(queue.size)
            for rows, joint in _joint_counts(features[[f]], features[queue]):
                h_pair[rows] = _entropies(joint.reshape(len(joint), -1), plogp)
            queue = queue[_su(h[f], h[queue], h_pair) < su_class[queue]]
    return tuple(sorted(survivors))
