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
points are kept meaningful by flooring distances at 1e-12. CAN payloads
repeat, so points are grouped into distinct rows first and distances are
computed only among those, one block of query rows at a time: memory per
block is bounded, and time grows with the square of the number of
distinct rows. Each distance is summed coordinate by coordinate, so equal
rows sit exactly at the floor and no score depends on the block height,
the point order or the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DIST_FLOOR = 1e-12
_BLOCK_ENTRIES = 1 << 16  # distance entries per block of query rows


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

    Exact duplicate rows are grouped first, so distances are computed only
    among the m distinct rows, for blocks of about _BLOCK_ENTRIES entries:
    memory per block stays bounded and time grows with m squared, not with
    the number of points. A distance sums squared coordinate differences
    one coordinate at a time, so its bits depend on neither the block, the
    row order nor a BLAS build, and equal rows sit exactly at the 1e-12
    floor. A point's own copies count as its neighbors there; the point
    itself does not. Each point's neighbors are summed in the sorted order
    of their rows, so permuting the points permutes the scores and equal
    rows get equal scores, bit for bit. Anomaly convention: score >
    cfg.score_threshold; for ROC sweeps that expect lower-is-anomalous,
    negate the scores. A NaN or infinite coordinate raises ValueError.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(X)
    k = cfg.k_neighbors
    if n <= k:
        raise ValueError(f"need more than k_neighbors={k} points, got {n}")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"point {int(np.argmax(bad))} is not finite")
    U, inv, w = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    inv = inv.reshape(-1)  # numpy 2.0.0 returns it as (n, 1)
    m = len(U)
    coords = np.ascontiguousarray(U.T)  # one contiguous row per coordinate
    kk = min(k, m)  # the k nearest points lie among the kk nearest rows
    block = max(1, _BLOCK_ENTRIES // m)
    d = np.empty((block, m))
    tmp = np.empty((block, m))

    # neighbor rows, flat and row-major: row u owns row_counts[u] entries.
    # The floor is applied after the selection: it is monotone, so it
    # changes no order and no tie.
    kdist = np.empty(m)
    row_counts = np.empty(m, dtype=np.intp)
    cols: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        rows = np.arange(lo, hi)
        db, tb = d[:hi - lo], tmp[:hi - lo]
        np.subtract(coords[0, lo:hi, None], coords[0], out=db)
        np.square(db, out=db)
        for c in coords[1:]:
            np.subtract(c[lo:hi, None], c, out=tb)
            np.square(tb, out=tb)
            db += tb
        np.sqrt(db, out=db)
        # a row's own entry stands for its w - 1 other copies at distance
        # 0; a row with one copy has none
        single = rows[w[lo:hi] == 1]
        db[single - lo, single] = np.inf
        near = np.argpartition(db, kk - 1, axis=1)[:, :kk] if kk < m \
            else np.broadcast_to(np.arange(m), db.shape)
        near = np.take_along_axis(
            near, np.argsort(np.take_along_axis(db, near, axis=1), axis=1),
            axis=1)
        copies = w[near] - (near == rows[:, None])
        # the k-th nearest point lies in the first row whose copies bring
        # the running count to k
        reached = (np.cumsum(copies, axis=1) < k).sum(axis=1)
        kd = db[rows - lo, near[np.arange(hi - lo), reached]]
        kdist[lo:hi] = np.maximum(kd, _DIST_FLOOR)
        flat = np.flatnonzero(db <= kdist[lo:hi, None])  # includes ties
        row, col = np.divmod(flat, m)
        row_counts[lo:hi] = np.bincount(row, minlength=hi - lo)
        cols.append(col)
        dists.append(np.maximum(db.ravel()[flat], _DIST_FLOOR))

    # each neighbor row stands for its copies, the point itself excepted
    nbr = np.concatenate(cols)
    owner = np.repeat(np.arange(m), row_counts)
    copies = w[nbr] - (nbr == owner)
    reach = np.repeat(np.maximum(kdist[nbr], np.concatenate(dists)), copies)
    nbr = np.repeat(nbr, copies)
    owner = np.repeat(owner, copies)
    counts = np.bincount(owner, minlength=m)
    groups = _row_groups(counts)

    lrd = counts / _row_sums(reach, groups, m)
    # the mean of the neighbors' lrd over the point's own, taken ratio by
    # ratio: a neighborhood of equal density scores exactly 1
    return (_row_sums(lrd[nbr] / lrd[owner], groups, m) / counts)[inv]


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
