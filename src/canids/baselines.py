"""Statistical and proximity baselines: Bollinger bands and LOF.

Bollinger bands flag a value that escapes the moving mean by more than
`band_width` standard deviations. Both flavors judge a value against
statistics of strictly earlier values only: SMA uses the trailing window
excluding the current value, EWMA uses the previous step's exponentially
weighted mean and variance. The first `window` steps are a warm-up and
never flagged.

LOF compares each point's local reachability density to its neighbors'
(score near 1 = inlier, substantially above 1 = outlier). Neighbor sets
include distance ties, so they can hold more than k points; duplicate
points are kept meaningful by flooring distances at 1e-12. Distances are
computed for one block of query rows at a time, so memory per block is
bounded whatever the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DIST_FLOOR = 1e-12
_BLOCK_ENTRIES = 1 << 20  # distance entries per block of query rows


@dataclass(frozen=True)
class BollingerConfig:
    window: int = 20  # SMA window length, or EWMA span
    band_width: float = 2.0
    mode: str = "SMA"

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.band_width <= 0:
            raise ValueError("band_width must be positive")
        if self.mode not in ("SMA", "EWMA"):
            raise ValueError("mode must be SMA or EWMA")


@dataclass(frozen=True)
class BollingerResult:
    mean: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    flags: np.ndarray  # int 0/1; warm-up steps are always 0


def bollinger_flags(series: np.ndarray, cfg: BollingerConfig) -> BollingerResult:
    """Per-step band statistics and outside-the-band flags for one signal."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = len(x)
    w = cfg.window
    if n < w:
        raise ValueError(f"series of length {n} shorter than window {w}")
    mean = np.full(n, np.nan)
    std = np.full(n, np.nan)
    if cfg.mode == "SMA":
        # trailing window excludes the current value: step i is judged
        # against x[i-w:i]
        wins = np.lib.stride_tricks.sliding_window_view(x, w)[:-1]
        mean[w:] = wins.mean(axis=1)
        std[w:] = wins.std(axis=1)  # population std
    else:
        lam = 2.0 / (w + 1.0)
        m = x[0]
        v = 0.0
        # step i is judged against the stats of x[0..i-1]
        for i in range(1, n):
            mean[i] = m
            std[i] = np.sqrt(v)
            delta = x[i] - m
            incr = lam * delta
            m = m + incr
            v = (1.0 - lam) * (v + delta * incr)
    upper = mean + cfg.band_width * std
    lower = mean - cfg.band_width * std
    flags = np.zeros(n, dtype=np.int64)
    judged = np.arange(n) >= w
    flags[judged] = ((x[judged] > upper[judged])
                     | (x[judged] < lower[judged])).astype(np.int64)
    return BollingerResult(mean=mean, upper=upper, lower=lower, flags=flags)


def bollinger_message_flags(signals: np.ndarray,
                            cfg: BollingerConfig) -> np.ndarray:
    """Per-message flag: OR of the per-signal Bollinger flags."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2:
        raise ValueError("signals must be (n, k)")
    flags = np.zeros(len(signals), dtype=np.int64)
    for j in range(signals.shape[1]):
        flags |= bollinger_flags(signals[:, j], cfg).flags
    return flags


# --------------------------------------------------------------------------
# local outlier factor


@dataclass(frozen=True)
class LofConfig:
    k_neighbors: int = 20
    score_threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.score_threshold <= 1.0:
            raise ValueError("score_threshold must exceed 1")


def lof_scores(points: np.ndarray, cfg: LofConfig) -> np.ndarray:
    """LOF score per point (higher = more isolated).

    Distances are computed for blocks of query rows, about _BLOCK_ENTRIES
    entries each, so memory stays bounded and the full n x n matrix is
    never materialized. Anomaly convention: score > cfg.score_threshold;
    for ROC sweeps that expect lower-is-anomalous, negate the scores.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(X)
    k = cfg.k_neighbors
    if n <= k:
        raise ValueError(f"need more than k_neighbors={k} points, got {n}")
    sq = np.sum(X * X, axis=1)
    block = max(1, _BLOCK_ENTRIES // n)

    # neighbor sets, flat and row-major: row i owns counts[i] entries
    kdist = np.empty(n)
    counts = np.empty(n, dtype=np.intp)
    cols: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (X[lo:hi] @ X.T)
        np.clip(d2, 0.0, None, out=d2)
        d = np.sqrt(d2)
        np.clip(d, _DIST_FLOOR, None, out=d)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # self is not a neighbor
        kd = np.partition(d, k - 1, axis=1)[:, k - 1]
        kdist[lo:hi] = kd
        flat = np.flatnonzero(d <= kd[:, None])  # includes ties
        row, col = np.divmod(flat, n)
        counts[lo:hi] = np.bincount(row, minlength=hi - lo)
        cols.append(col)
        dists.append(d.ravel()[flat])
    nbr = np.concatenate(cols)
    groups = _row_groups(counts)

    reach = np.maximum(kdist[nbr], np.concatenate(dists))
    lrd = counts / _row_sums(reach, groups, n)
    # mean of the neighbors' lrd, then divided by the point's own: the
    # rounding of np.mean(lrd[neighbors]) / lrd[p]
    return _row_sums(lrd[nbr], groups, n) / counts / lrd


def _row_groups(counts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows grouped by entry count, with each row's positions in the flat
    arrays: (rows, positions) where positions has shape (len(rows), count)."""
    starts = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    cuts = np.flatnonzero(np.diff(counts[order])) + 1
    return [(rows, starts[rows, None] + np.arange(counts[rows[0]]))
            for rows in np.split(order, cuts)]


def _row_sums(values: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]],
              n: int) -> np.ndarray:
    """Per-row sums of a flat row-major array. Each row is summed along the
    last axis of a (rows, count) gather, in the order np.sum takes over
    that row alone."""
    out = np.empty(n)
    for rows, positions in groups:
        out[rows] = values[positions].sum(axis=1)
    return out
