"""Bollinger-band and LOF baselines against loop-form oracles."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from canids.baselines import (
    BollingerConfig,
    LofConfig,
    bollinger_flags,
    bollinger_message_flags,
    lof_scores,
)
from canids import baselines
from canids.config import load_config_dict
from canids.pipeline import gen_trace, inject

from oracles import (ewma_bands_oracle, lof_scores_loop, naive_lof,
                     sma_bands_oracle)


class TestSmaBollinger:
    def test_hand_example(self):
        # window 3 over [1,2,3,4]: step 3 judged against mean 2, std
        # sqrt(2/3); 4 > 2 + 2*0.8165 = 3.633 -> flagged
        res = bollinger_flags(np.array([1.0, 2.0, 3.0, 4.0]),
                              BollingerConfig(window=3, band_width=2.0))
        assert np.isnan(res.mean[:3]).all()
        assert res.mean[3] == pytest.approx(2.0)
        assert res.upper[3] == pytest.approx(2.0 + 2.0 * np.sqrt(2.0 / 3.0))
        assert res.flags.tolist() == [0, 0, 0, 1]

    def test_matches_loop_oracle_on_random_series(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        x[150] += 6.0  # one obvious outlier
        res = bollinger_flags(x, BollingerConfig(window=20, band_width=2.0))
        mean_o, std_o, flags_o = sma_bands_oracle(x, 20, 2.0)
        assert np.allclose(res.mean[20:], mean_o[20:], atol=1e-10)
        assert np.allclose(res.upper[20:], mean_o[20:] + 2.0 * std_o[20:],
                           atol=1e-10)
        assert np.allclose(res.lower[20:], mean_o[20:] - 2.0 * std_o[20:],
                           atol=1e-10)
        assert np.array_equal(res.flags, flags_o)
        assert res.flags[150] == 1

    def test_constant_series_never_flagged(self):
        # zero variance makes the bands collapse onto the value itself
        res = bollinger_flags(np.full(50, 3.7),
                              BollingerConfig(window=10, band_width=2.0))
        assert res.flags.sum() == 0

    def test_step_onto_constant_history_is_flagged(self):
        x = np.full(30, 1.0)
        x[-1] = 1.001
        res = bollinger_flags(x, BollingerConfig(window=10, band_width=2.0))
        assert res.flags[-1] == 1

    def test_warm_up_never_flagged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40) * 100
        res = bollinger_flags(x, BollingerConfig(window=15, band_width=0.1))
        assert res.flags[:15].sum() == 0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=120)
        cfg = BollingerConfig(window=20, band_width=2.0)
        a = bollinger_flags(x, cfg)
        b = bollinger_flags(x + 1000.0, cfg)
        assert np.array_equal(a.flags, b.flags)
        assert np.allclose(b.mean[20:] - a.mean[20:], 1000.0, atol=1e-9)


def _assert_ewma_matches_oracle(x, window, width):
    """EWMA-BB's means, bands and flags equal the numpy-scalar loop's bit
    for bit, and computing them raises no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = ewma_bands_oracle(x, window, width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bollinger_flags(x, BollingerConfig(window=window,
                                                 band_width=width,
                                                 mode="EWMA"))
    for got, expected in zip((res.mean, res.upper, res.lower), want):
        assert got.tobytes() == expected.tobytes()
    assert np.array_equal(res.flags, want[3])


class TestEwmaBollinger:
    def test_constant_series_stats_are_exact(self):
        res = bollinger_flags(np.full(40, 2.5),
                              BollingerConfig(window=10, mode="EWMA"))
        assert np.allclose(res.mean[10:], 2.5)
        assert np.allclose(res.upper[10:], 2.5)
        assert res.flags.sum() == 0

    def test_first_judged_step_uses_prior_history_only(self):
        # mean at step i must not include x[i]; a spike at the first judged
        # index is compared against the pre-spike statistics
        x = np.concatenate([np.full(20, 1.0), [9.0], np.full(10, 1.0)])
        res = bollinger_flags(x, BollingerConfig(window=5, mode="EWMA"))
        assert res.mean[20] == pytest.approx(1.0)
        assert res.flags[20] == 1

    def test_weighted_mean_recurrence(self):
        # replicate the recurrence by hand for a short series
        x = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 2.5])
        lam = 2.0 / (3 + 1.0)
        m, v = x[0], 0.0
        means, stds = [], []
        for i in range(1, len(x)):
            means.append(m)
            stds.append(np.sqrt(v))
            delta = x[i] - m
            m += lam * delta
            v = (1.0 - lam) * (v + delta * lam * delta)
        res = bollinger_flags(x, BollingerConfig(window=3, mode="EWMA"))
        assert np.allclose(res.mean[1:], means)
        assert np.allclose(res.upper[1:] - res.mean[1:],
                           2.0 * np.array(stds))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=hs.data(), window=hs.integers(2, 30),
           width=hs.floats(0.1, 4.0))
    def test_matches_scalar_loop_oracle_bit_for_bit(self, data, window,
                                                    width):
        x = np.array(data.draw(hs.lists(
            hs.floats(-1e300, 1e300) | hs.floats(-10.0, 10.0),
            min_size=window, max_size=200)))
        _assert_ewma_matches_oracle(x, window, width)

    def test_huge_payloads_raise_no_warning(self):
        # a product of two near-1e300 deviations overflows to inf; the
        # scalar-loop form warned on it, and CI turns warnings into errors
        x = np.random.default_rng(4).normal(size=7200)
        x[[100, 2000, 2001, 5000]] = [1e300, -1e300, 9e299, 1e300]
        _assert_ewma_matches_oracle(x, 20, 2.0)

    def test_reacts_faster_than_sma_after_level_shift(self):
        x = np.concatenate([np.zeros(50), np.ones(50)])
        sma = bollinger_flags(x, BollingerConfig(window=20, mode="SMA"))
        ewma = bollinger_flags(x, BollingerConfig(window=20, mode="EWMA"))
        # both flag the jump itself
        assert sma.flags[50] == 1 and ewma.flags[50] == 1
        # EWMA's mean at the end has pulled well toward the new level
        assert ewma.mean[-1] > 0.9
        assert sma.mean[-1] <= 1.0


class TestBollingerValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BollingerConfig(window=1)
        with pytest.raises(ValueError):
            BollingerConfig(band_width=0.0)
        with pytest.raises(ValueError):
            BollingerConfig(mode="WMA")

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            bollinger_flags(np.zeros(5), BollingerConfig(window=10))

    def test_message_flags_or_over_signals(self):
        n = 40
        a = np.zeros(n)
        b = np.zeros(n)
        a[25] = 5.0
        b[30] = 5.0
        sig = np.column_stack([a, b])
        flags = bollinger_message_flags(sig, BollingerConfig(window=10))
        assert flags[25] == 1 and flags[30] == 1
        only_a = bollinger_flags(a, BollingerConfig(window=10)).flags
        only_b = bollinger_flags(b, BollingerConfig(window=10)).flags
        assert np.array_equal(flags, only_a | only_b)


class TestLof:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        for k in (5, 20):
            got = lof_scores(X, LofConfig(k_neighbors=k))
            ref = naive_lof(X, k)
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_chunking_does_not_change_scores(self, monkeypatch):
        X = np.random.default_rng(4).normal(size=(150, 3))
        cfg = LofConfig(k_neighbors=10)
        monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", 7 * len(X))
        a = lof_scores(X, cfg)
        monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", 10_000 * len(X))
        b = lof_scores(X, cfg)
        assert np.array_equal(a, b)

    def test_uniform_grid_interior_is_near_one(self):
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        X = np.column_stack([xs.ravel(), ys.ravel()])
        scores = lof_scores(X, LofConfig(k_neighbors=8))
        interior = scores[(X[:, 0] > 0) & (X[:, 0] < 8)
                          & (X[:, 1] > 0) & (X[:, 1] < 8)]
        assert interior.min() > 0.8
        assert interior.max() < 1.2

    def test_far_outlier_scores_high(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(size=(100, 2)), [[30.0, 30.0]]])
        scores = lof_scores(X, LofConfig(k_neighbors=10))
        assert scores[-1] > 2.0
        assert np.median(scores[:-1]) < 1.3

    def test_identical_points_score_one(self):
        X = np.zeros((30, 2))
        scores = lof_scores(X, LofConfig(k_neighbors=5))
        assert np.allclose(scores, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LofConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            LofConfig(score_threshold=1.0)
        with pytest.raises(ValueError, match="more than"):
            lof_scores(np.zeros((5, 2)), LofConfig(k_neighbors=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        # np.unique would group NaN rows by bit pattern, and an infinity
        # makes inf - inf distances
        X = np.random.default_rng(6).normal(size=(12, 2))
        X[7, 1] = bad
        with pytest.raises(ValueError, match="point 7 is not finite"):
            lof_scores(X, LofConfig(k_neighbors=3))


def _clusters(rng, n_groups: int, size: int, dim: int) -> np.ndarray:
    """n_groups points, each repeated size times, in shuffled order."""
    centers = rng.normal(size=(n_groups, dim))
    return centers[rng.permutation(np.repeat(np.arange(n_groups), size))]


def _lattice(side: int, dim: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


_HARD_CASES = {
    # duplicate clusters larger than k, plus scattered singletons
    "clusters": (np.vstack([
        _clusters(np.random.default_rng(7), 12, 9, 3),
        np.random.default_rng(8).normal(size=(40, 3))]), (1, 5, 8)),
    "lattice_ties": (_lattice(7, 2), (1, 4, 8)),
    "lattice_3d": (_lattice(5, 3), (1, 6, 20)),
    # distinct points closer than the 1e-12 floor tie with duplicates
    "sub_floor": (np.vstack([
        [1.0, 2.0] + np.arange(12)[:, None] * [3e-14, 0.0],
        np.random.default_rng(12).normal(size=(30, 2))]), (1, 5, 8)),
    "n_is_k_plus_one": (np.random.default_rng(9).normal(size=(6, 2)), (5,)),
    "two_points": (np.array([[0.0, 1.0], [2.0, 3.0]]), (1,)),
    "one_column": (np.round(np.random.default_rng(10).normal(size=(90, 1)),
                            1), (1, 3, 10)),
    # the grid leaves the constant middle coordinate out
    "zero_span": (np.column_stack([
        np.round(np.random.default_rng(13).normal(size=(80, 2)), 1),
        np.full(80, 3.0)])[:, [0, 2, 1]], (1, 5, 12)),
    # three groups 5e11 apart on a coordinate spread over 1e12: the edge is
    # clamped to span / _AXIS_CELLS and each group spans a few cells
    "wide_spread": (np.column_stack([
        np.repeat([0.0, 5e11, 1e12], 30)
        + np.random.default_rng(14).normal(scale=3e5, size=90),
        np.random.default_rng(15).normal(size=(90, 2))]), (1, 5, 20)),
    # the grid uses the three widest of six coordinates
    "six_columns": (np.random.default_rng(16).normal(size=(150, 6))
                    * [1.0, 3.0, 0.5, 2.0, 1.0, 4.0], (1, 7, 15)),
    # a sub-floor cluster across the cell boundary at x = 1.0 (the grid
    # starts at 0 and the edge is pinned to 0.5, see _EDGES)
    "sub_floor_straddle": (np.vstack([
        [1.0, 0.5] + (np.arange(12)[:, None] - 6) * [3e-14, 0.0],
        np.random.default_rng(17).uniform(0.0, 2.0, size=(40, 2)),
        [[0.0, 0.0], [2.0, 2.0]]]), (1, 5, 8, 14)),
    # a 0.5-spaced lattice on the pinned unit edge: every other point lies
    # on a cell edge, and k = 12 reaches k-distance 1.0, the edge itself
    "on_cell_edges": (_lattice(9, 2) * 0.5, (1, 4, 8, 12)),
    # on the pinned unit edge from -5, the point just below 1.0 has its
    # nearest neighbor, 2.0, two cells up at 1 + 2^-40, and its adjacent
    # cells hold only a point at 1 + 2^-39: its k-distance exceeds the
    # edge, and only the search over all rows finds it. 15.58 settles at
    # k = 1 with its neighbor 0.99 up, one cell away, and a decoy 0.995
    # down: cells 2% narrower than the edge would put them two apart
    "just_past_the_edge": (np.array([
        [-5.0], [-3 * 2.0**-40], [1 - 2.0**-40], [2.0], [6.0], [8.0],
        [14.585], [15.58], [16.57]]), (1, 2)),
}
# cases whose meaning rests on where the cell edges fall pin the edge
_EDGES = {"sub_floor_straddle": 0.5, "on_cell_edges": 1.0,
          "just_past_the_edge": 1.0}


def _distinct(X: np.ndarray) -> int:
    return len(np.unique(X, axis=0))


def _with_duplicates(seed, n_distinct, n, dim, grid) -> np.ndarray:
    """n points drawn with repeats from n_distinct normal points, rounded
    to `grid` unless it is None."""
    rng = np.random.default_rng(seed)
    distinct = rng.normal(scale=3.0, size=(n_distinct, dim))
    if grid is not None:
        distinct = np.round(distinct / grid) * grid
    return distinct[rng.integers(0, n_distinct, size=n)]


_SETS = dict(seed=hs.integers(0, 2**32 - 1), n_distinct=hs.integers(1, 25),
             n=hs.integers(2, 60), dim=hs.integers(1, 3),
             grid=hs.sampled_from([None, 1.0, 0.5]), k=hs.integers(1, 12))


class TestLofMatchesLoopReference:
    """lof_scores must equal the per-point loop form bit for bit, whatever
    the height of its distance blocks."""

    @pytest.mark.parametrize("case", sorted(_HARD_CASES))
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_hard_cases(self, monkeypatch, case, rows):
        X, ks = _HARD_CASES[case]
        m = _distinct(X)
        monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", (rows or m) * m)
        if case in _EDGES:
            monkeypatch.setattr(baselines, "_cell_edge",
                                lambda *_: _EDGES[case])
        for k in ks:
            got = lof_scores(X, LofConfig(k_neighbors=k))
            assert np.array_equal(got, lof_scores_loop(X, k)), k

    def test_default_block_on_a_capture_sized_set(self):
        # 2,300 rows on a coarse grid, as quantized CAN signals are, with
        # many duplicates; the default block leaves a partial last block
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(2300, 3)), 1)
        m = _distinct(X)
        block = max(1, baselines._BLOCK_ENTRIES // m)
        assert 1 < block < m and m % block
        for k in (1, 20):
            got = lof_scores(X, LofConfig(k_neighbors=k))
            assert np.array_equal(got, lof_scores_loop(X, k))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(rows=hs.integers(1, 64), **_SETS)
    def test_small_sets_with_forced_duplicates(self, seed, n_distinct, n,
                                               dim, grid, k, rows):
        X = _with_duplicates(seed, n_distinct, n, dim, grid)
        k = min(k, n - 1)
        with mock.patch.object(baselines, "_BLOCK_ENTRIES",
                               rows * _distinct(X)):
            got = lof_scores(X, LofConfig(k_neighbors=k))
        assert np.array_equal(got, lof_scores_loop(X, k))


class TestLofProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(order_seed=hs.integers(0, 2**32 - 1), **_SETS)
    def test_permuting_points_permutes_scores(self, order_seed, seed,
                                              n_distinct, n, dim, grid, k):
        X = _with_duplicates(seed, n_distinct, n, dim, grid)
        cfg = LofConfig(k_neighbors=min(k, n - 1))
        perm = np.random.default_rng(order_seed).permutation(n)
        assert np.array_equal(lof_scores(X[perm], cfg),
                              lof_scores(X, cfg)[perm])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(entries=hs.integers(1, 40_000), **{
        **_SETS, "n_distinct": hs.integers(1, 80), "n": hs.integers(2, 300)})
    def test_any_block_size_gives_the_same_scores(self, entries, seed,
                                                  n_distinct, n, dim, grid, k):
        # a BLAS product's rounding would depend on the block height
        X = _with_duplicates(seed, n_distinct, n, dim, grid)
        cfg = LofConfig(k_neighbors=min(k, n - 1))
        whole = lof_scores(X, cfg)
        with mock.patch.object(baselines, "_BLOCK_ENTRIES", entries):
            assert np.array_equal(lof_scores(X, cfg), whole)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(edge=hs.one_of(hs.floats(1e-3, 20.0),
                          hs.sampled_from([0.5, 1.0, 1e300])),
           **{**_SETS, "n_distinct": hs.integers(1, 80),
              "n": hs.integers(2, 300)})
    def test_any_cell_edge_gives_the_same_scores(self, edge, seed, n_distinct,
                                                 n, dim, grid, k):
        # an infinite edge puts every row in one cell: all pairs
        X = _with_duplicates(seed, n_distinct, n, dim, grid)
        cfg = LofConfig(k_neighbors=min(k, n - 1))
        with mock.patch.object(baselines, "_cell_edge", lambda *_: np.inf):
            one_cell = lof_scores(X, cfg)
        with mock.patch.object(baselines, "_cell_edge", lambda *_: edge):
            assert np.array_equal(lof_scores(X, cfg), one_cell)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(**_SETS)
    def test_equal_points_get_equal_scores(self, seed, n_distinct, n, dim,
                                           grid, k):
        X = _with_duplicates(seed, n_distinct, n, dim, grid)
        scores = lof_scores(X, LofConfig(k_neighbors=min(k, n - 1)))
        _, first, inv = np.unique(X, axis=0, return_index=True,
                                  return_inverse=True)
        assert np.array_equal(scores, scores[first][inv.reshape(-1)])

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=hs.integers(0, 2**32 - 1), k=hs.integers(1, 20),
           extra=hs.integers(1, 30), n_other=hs.integers(0, 40),
           dim=hs.integers(1, 3))
    def test_more_than_k_copies_score_exactly_one(self, seed, k, extra,
                                                  n_other, dim):
        # k + extra copies: each sees at least k others at the floor, so
        # its neighbors are its copies alone, all of its own density
        rng = np.random.default_rng(seed)
        point = rng.normal(size=(1, dim))
        X = np.vstack([np.repeat(point, k + extra, axis=0),
                       rng.normal(size=(n_other, dim))])
        X = X[rng.permutation(len(X))]
        copies = (X == point).all(axis=1)
        scores = lof_scores(X, LofConfig(k_neighbors=k))
        assert (scores[copies] == 1.0).all()


# the benchmark's capture signals; the default suite floods a tenth of the
# test span and attacks signal 1
_CAPTURE = {
    "seed": 1,
    "schema": {"message_id": "0x101", "signal_count": 3,
               "nominal_period_ms": 15.0},
    "signals": [
        {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
         "period_s": 0.705, "noise_std": 0.02},
        {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
         "noise_std": 0.01},
        {"kind": "sine", "lo": -2.5, "hi": 2.5, "amplitude": 2.0,
         "period_s": 0.915, "noise_std": 0.02}],
    "generation": {"train_duration_s": 45.0, "test_duration_s": 600.0},
    "attacks": {"suite": "default", "target_signal": 1},
}


class TestLofGridWork:
    def test_capture_costs_a_few_percent_of_all_pairs(self):
        cfg = load_config_dict(_CAPTURE)
        attacked, _ = inject(cfg, gen_trace(cfg, "test"))
        X = attacked.signals[:24_000]
        m = _distinct(X)
        assert m >= 20_000
        distances = baselines._distances
        entries = []

        def spy(*args):
            d = distances(*args)
            entries.append(d.size)
            return d

        lcfg = LofConfig(k_neighbors=cfg.baselines.lof_k)
        with mock.patch.object(baselines, "_distances", spy):
            got = lof_scores(X, lcfg)
        assert sum(entries) < 0.05 * m * m, sum(entries) / m**2
        with mock.patch.object(baselines, "_cell_edge", lambda *_: np.inf):
            assert np.array_equal(got, lof_scores(X, lcfg))
