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
repeat, so points are grouped into distinct rows first. Those rows are
bucketed on a uniform grid over at most three of their widest
coordinates, with an edge chosen so that a cell holds about k rows if the
rows filled their bounding box evenly. A row's neighbors are sought among
the rows of its own and the adjacent cells; when those hold k other
points and the row's k-distance is below the edge, no farther row can be
a neighbor. The few rows this leaves open (sparse regions, outliers) are
searched against every distinct row. On the benchmark's captures this
costs a few percent of all pairs, and time grows about linearly with the
number of distinct rows; a set the grid cannot split falls back to all
pairs, whose time grows with its square. Distances are computed one
block of query rows at a time, so memory per block is bounded. Each
distance is summed coordinate by coordinate, so equal rows sit exactly at
the floor and no score depends on the grid, the block height, the point
order or the BLAS build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_DIST_FLOOR = 1e-12
_BLOCK_ENTRIES = 1 << 16  # distance entries per block of query rows
_GRID_AXES = 3  # coordinates the LOF grid buckets on, the widest first
_AXIS_CELLS = 1 << 20  # cells per grid axis at most
# relative; covers the rounding of cell indices and of distances
_EDGE_MARGIN = 1e-6


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
        # Python floats: the same IEEE operations as numpy scalars, at a
        # fraction of the cost, and an overflow to inf raises no warning
        lam = 2.0 / (w + 1.0)
        xs = x.tolist()
        m, v = xs[0], 0.0
        means, variances = [], []
        # step i is judged against the stats of x[0..i-1]
        for xi in xs[1:]:
            means.append(m)
            variances.append(v)
            delta = xi - m
            incr = lam * delta
            m = m + incr
            v = (1.0 - lam) * (v + delta * incr)
        mean[1:] = means
        std[1:] = np.sqrt(variances)
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
    among the m distinct rows. The rows are bucketed on a uniform grid
    (see _grid), and each row's neighbors are first sought among the rows
    of its own and the adjacent cells. That search settles the row when
    those candidates hold at least k other points and its k-distance is
    below the cell edge: every other row is more than one edge away in
    some coordinate, so none of them can be a neighbor. A row the grid
    does not settle is searched again against all m rows. Both searches
    run the same block routine, for blocks of about _BLOCK_ENTRIES
    distances: memory per block stays bounded, and time grows about
    linearly with m when the grid settles most rows (it holds the whole
    set in one cell, and costs m squared, when it cannot prune).

    A distance sums squared coordinate differences one coordinate at a
    time, so its bits depend on neither the block, the candidate set, the
    row order nor a BLAS build, and equal rows sit exactly at the 1e-12
    floor. A point's own copies count as its neighbors there; the point
    itself does not. Each point's neighbors are summed in the sorted order
    of their rows, so permuting the points permutes the scores and equal
    rows get equal scores, bit for bit, and the scores equal those of a
    search over all pairs. Anomaly convention: score > cfg.score_threshold;
    for ROC sweeps that expect lower-is-anomalous, negate the scores. A NaN
    or infinite coordinate raises ValueError.
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
    # one contiguous row per coordinate; column m, at infinity with no
    # copies, pads candidate lists of unequal length
    coords = np.full((U.shape[1], m + 1), np.inf)
    coords[:, :m] = U.T
    w = np.append(w, 0)
    size = max(_BLOCK_ENTRIES, m)
    buffers = (np.empty(size), np.empty(size))

    edge, cell, cands = _grid(U, k)
    found, rest = _search(coords, w, k, np.arange(m), cell, cands,
                          edge * (1.0 - _EDGE_MARGIN), buffers)
    # the rows the grid left open, against every row: one cell holding all
    everything = (np.arange(m), np.array([0]), np.array([m]))
    found += _search(coords, w, k, rest, np.zeros(m, dtype=np.intp),
                     everything, np.inf, buffers)[0]

    rows, kd, row_count, cols, dists = (np.concatenate(a) for a in zip(*found))
    kdist = np.empty(m)
    kdist[rows] = kd
    row_counts = np.zeros(m, dtype=np.intp)
    row_counts[rows] = row_count
    # neighbor rows, flat and row-major: row u owns row_counts[u] entries
    by_row = np.argsort(np.repeat(rows, row_count), kind="stable")
    nbr = cols[by_row]

    # each neighbor row stands for its copies, the point itself excepted
    owner = np.repeat(np.arange(m), row_counts)
    copies = w[nbr] - (nbr == owner)
    reach = np.repeat(np.maximum(kdist[nbr], dists[by_row]), copies)
    nbr = np.repeat(nbr, copies)
    owner = np.repeat(owner, copies)
    counts = np.bincount(owner, minlength=m)
    groups = _row_groups(counts)

    lrd = counts / _row_sums(reach, groups, m)
    # the mean of the neighbors' lrd over the point's own, taken ratio by
    # ratio: a neighborhood of equal density scores exactly 1
    return (_row_sums(lrd[nbr] / lrd[owner], groups, m) / counts)[inv]


def _cell_edge(spans: np.ndarray, m: int, k: int) -> float:
    """Edge of the cubic cells that would hold about k rows each if the m
    rows were spread evenly over a box with these (positive) spans."""
    return float(np.exp((np.log(spans).sum() + np.log(k / m)) / len(spans)))


def _grid(U: np.ndarray, k: int
          ) -> tuple[float, np.ndarray, tuple[np.ndarray, ...]]:
    """Bucket the distinct rows on a uniform grid over at most three of
    their widest coordinates (zero spans left out).

    Returns the cell edge, each row's cell, and per occupied cell its
    candidates: the rows of that cell and of the adjacent ones, ascending,
    as (rows, start, count) over one flat array. With no coordinate to
    bucket on, or an edge that spans the set, one cell holds every row
    and the edge is infinite.
    """
    m = len(U)
    spans = U.max(axis=0) - U.min(axis=0)
    axes = np.argsort(-spans, kind="stable")[:_GRID_AXES]
    axes = axes[spans[axes] > 0]
    edge = np.inf
    if len(axes):
        # at most _AXIS_CELLS cells per axis, so a cell key fits in int64
        edge = max(_cell_edge(spans[axes], m, k),
                   spans[axes[0]] / _AXIS_CELLS)
        if edge >= spans[axes[0]]:
            edge = np.inf
    if edge == np.inf:
        axes = axes[:0]
    lo = U[:, axes].min(axis=0)
    index = np.floor((U[:, axes] - lo) / edge).astype(np.int64) + 1
    # a margin of one empty cell on either side of each axis keeps every
    # adjacent key in range
    strides = np.cumprod(np.append(1, index.max(axis=0)[:-1] + 2))
    key = index @ strides[:len(axes)]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    cells, in_order = np.unique(sorted_key, return_inverse=True)
    cell = np.empty(m, dtype=np.intp)
    cell[order] = in_order

    steps = np.array(list(itertools.product((-1, 0, 1), repeat=len(axes))),
                     dtype=np.int64)
    near = cells[:, None] + steps @ strides[:len(axes)]
    first = np.searchsorted(sorted_key, near, side="left").ravel()
    size = np.searchsorted(sorted_key, near, side="right").ravel() - first
    # the rows of every adjacent cell, one cell's candidates after another
    offset = np.repeat(first - (np.cumsum(size) - size), size)
    rows = order[offset + np.arange(len(offset))]
    count = size.reshape(len(cells), -1).sum(axis=1)
    owner = np.repeat(np.arange(len(cells)), count) * m
    rows = np.sort(owner + rows) - owner
    return edge, cell, (rows, np.cumsum(count) - count, count)


def _search(coords: np.ndarray, w: np.ndarray, k: int, queries: np.ndarray,
            cell: np.ndarray, cands: tuple[np.ndarray, ...], limit: float,
            buffers: tuple[np.ndarray, np.ndarray]
            ) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Neighbors of each query row among the candidates of its cell.

    A row is settled when its candidates hold at least k other points and
    its k-distance is below `limit`. Returns, per block, the settled rows
    with their k-distances, neighbor counts, neighbor rows and neighbor
    distances, and then the rows not settled. Queries run in blocks of
    about _BLOCK_ENTRIES distances, ordered by candidate count so that the
    lists of one block have about one length.
    """
    rows, start, count = cands
    padded = np.append(rows, len(w) - 1)
    order = np.lexsort((cell[queries], count[cell[queries]]))
    queries = queries[order]
    width = count[cell[queries]]
    found, rest = [], [queries[:0]]
    lo = 0
    while lo < len(queries):
        # widths ascend: a block as tall as its first list allows holds
        # the longest list, and a block sized for that one fits
        c = width[min(lo + max(1, _BLOCK_ENTRIES // width[lo]),
                      len(queries)) - 1]
        hi = min(lo + max(1, _BLOCK_ENTRIES // c), len(queries))
        c = width[hi - 1]
        q = queries[lo:hi]
        cq = cell[q]
        if cq[0] == cq[-1]:  # one cell: one list shared by the block
            cand = rows[start[cq[0]]:start[cq[0]] + c]
        else:
            at = np.arange(c)
            cand = padded[np.where(at < count[cq][:, None],
                                   start[cq][:, None] + at, len(rows))]
        kd, row_count, cols, dists, enough = _block(coords, w, k, q, cand,
                                                    buffers)
        ok = enough & (kd < limit)
        keep = np.repeat(ok, row_count)
        found.append((q[ok], kd[ok], row_count[ok], cols[keep], dists[keep]))
        rest.append(q[~ok])
        lo = hi
    return found, np.concatenate(rest)


def _block(coords: np.ndarray, w: np.ndarray, k: int, q: np.ndarray,
           cand: np.ndarray, buffers: tuple[np.ndarray, np.ndarray]
           ) -> tuple[np.ndarray, ...]:
    """k-distance and tie-inclusive neighbors of rows q among cand, one
    ascending candidate list per row (h, c) or one shared by all (c,).

    Returns the floored k-distances, the neighbor counts, the neighbor rows
    and floored distances (flat, row-major, ascending rows within a row),
    and whether each row's candidates hold at least k other points.
    """
    h, c = len(q), cand.shape[-1]
    d = _distances(coords, q, cand, *(b[:h * c].reshape(h, c)
                                      for b in buffers))
    cand = np.broadcast_to(cand, d.shape)
    # a row's own entry stands for its w - 1 other copies at distance 0; a
    # row with one copy has none
    single = np.flatnonzero(w[q] == 1)
    d[single, (cand[single] < q[single, None]).sum(axis=1)] = np.inf
    kk = min(k, c)  # the k nearest points lie among the kk nearest rows
    near = np.argpartition(d, kk - 1, axis=1)[:, :kk] if kk < c \
        else np.broadcast_to(np.arange(c), d.shape)
    near = np.take_along_axis(
        near, np.argsort(np.take_along_axis(d, near, axis=1), axis=1), axis=1)
    near_rows = np.take_along_axis(cand, near, axis=1)
    running = np.cumsum(w[near_rows] - (near_rows == q[:, None]), axis=1)
    # the k-th nearest point lies in the first row whose copies bring the
    # running count to k
    reached = np.minimum((running < k).sum(axis=1), kk - 1)
    kd = d[np.arange(h), near[np.arange(h), reached]]
    # The floor is applied after the selection: it is monotone, so it
    # changes no order and no tie.
    kdist = np.maximum(kd, _DIST_FLOOR)
    flat = np.flatnonzero(d <= kdist[:, None])  # includes ties
    row, col = np.divmod(flat, c)
    return (kdist, np.bincount(row, minlength=h), cand[row, col],
            np.maximum(d.ravel()[flat], _DIST_FLOOR), running[:, -1] >= k)


def _distances(coords: np.ndarray, q: np.ndarray, cand: np.ndarray,
               d: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Distances from rows q to their candidates, written into d (h, c):
    squared differences added one coordinate at a time, then the root."""
    for j, x in enumerate(coords):
        out = tmp if j else d
        other = np.take(x, cand, out=out) if cand.ndim == 2 else x[cand]
        np.subtract(x[q, None], other, out=out)
        np.square(out, out=out)
        if j:
            d += tmp
    return np.sqrt(d, out=d)


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
