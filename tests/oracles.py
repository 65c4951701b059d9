"""Independent reference implementations used to verify the hand-built
numerics. Nothing in here imports the solver code it checks; everything is
a direct transcription of a definition, favoring obviousness over speed.
The gateway loop oracle checks only the loop and its history buffer, so it
builds on the rate check, scorer and predictor it shares with the gateway.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from canids.controller import (
    FrameDisposition,
    OnlineConfig,
    RateCheckerState,
    rate_check,
)
from canids.detector import Scorer
from canids.predictor import predict_last_batch


# --------------------------------------------------------------------------
# capped-simplex QP (the one-class SVM dual)


def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {x : 0 <= x_i <= cap, sum x = 1}.

    clip(v - tau, 0, cap) sums monotonically down in tau; bisect tau.
    """
    v = np.asarray(v, dtype=np.float64)
    if cap * len(v) < 1.0 - 1e-12:
        raise ValueError("infeasible: cap * n < 1")
    lo = float(v.min()) - cap - 1.0
    hi = float(v.max()) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, cap)


def qp_ocsvm_oracle(K: np.ndarray, nu: float,
                    max_iters: int = 40_000) -> tuple[np.ndarray, float]:
    """Dense solve of min 1/2 a^T K a  s.t.  0 <= a <= 1/(nu n), sum a = 1.

    Accelerated projected gradient localizes the active set; every few
    hundred iterations the stationarity system on the current free set is
    solved exactly and the candidate is accepted once its KKT conditions
    certify. Returns (alpha, rho).
    """
    K = np.asarray(K, dtype=np.float64)
    n = len(K)
    cap = 1.0 / (nu * n)
    step = 1.0 / max(float(np.linalg.eigvalsh(K)[-1]), 1e-12)

    a = project_capped_simplex(np.full(n, 1.0 / n), cap)
    y = a.copy()
    t = 1.0
    done = 0
    while done < max_iters:
        for _ in range(250):
            a_new = project_capped_simplex(y - step * (K @ y), cap)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = a_new + ((t - 1.0) / t_new) * (a_new - a)
            a, t = a_new, t_new
        done += 250
        polished = _polish_active_set(K, a, cap)
        if polished is not None:
            return polished
    raise RuntimeError("oracle failed to certify a KKT point")


def _polish_active_set(K: np.ndarray, a: np.ndarray, cap: float,
                       set_tol: float = 1e-6, kkt_tol: float = 1e-9):
    """Exact solve on the active-set guess; None if KKT does not certify."""
    n = len(a)
    at_zero = a <= set_tol
    at_cap = a >= cap - set_tol
    free = ~(at_zero | at_cap)
    x = np.where(at_cap, cap, 0.0)
    m = int(free.sum())
    if m > 0:
        # free-set stationarity: K_FF a_F - rho 1 = -K_FU cap 1, sum a_F known
        A = np.zeros((m + 1, m + 1))
        A[:m, :m] = K[np.ix_(free, free)]
        A[:m, m] = -1.0
        A[m, :m] = 1.0
        rhs = np.concatenate([-K[np.ix_(free, at_cap)].sum(axis=1) * cap,
                              [1.0 - cap * at_cap.sum()]])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        x[free] = sol[:m]
        rho = float(sol[m])
        if np.any(x[free] < -kkt_tol) or np.any(x[free] > cap + kkt_tol):
            return None
        x[free] = np.clip(x[free], 0.0, cap)
    else:
        g_all = K @ x
        rho = 0.5 * (float(g_all[at_cap].max()) + (float(g_all[at_zero].min())
                                                   if at_zero.any()
                                                   else float(g_all.max())))
    if abs(x.sum() - 1.0) > 1e-9:
        return None
    g = K @ x
    if at_zero.any() and g[at_zero].min() < rho - 1e-7:
        return None
    if at_cap.any() and g[at_cap].max() > rho + 1e-7:
        return None
    return x, rho


def rbf_oracle(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Direct double-loop RBF kernel."""
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    out = np.empty((len(X), len(Y)))
    for i in range(len(X)):
        for j in range(len(Y)):
            d = X[i] - Y[j]
            out[i, j] = np.exp(-gamma * float(d @ d))
    return out


# --------------------------------------------------------------------------
# pairwise AUC statistic


def pairwise_auc(labels, scores) -> float:
    """P(anomaly scores below normal) + half the ties, over all pairs.

    Lower score = more anomalous, label 1 = anomaly. O(n^2) on purpose.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p < q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# --------------------------------------------------------------------------
# local outlier factor, textbook transcription


def naive_lof(points: np.ndarray, k: int, floor: float = 1e-12) -> np.ndarray:
    X = np.asarray(points, dtype=np.float64)
    n = len(X)
    if n <= k:
        raise ValueError("need more points than k")
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    D = np.maximum(D, floor)
    np.fill_diagonal(D, np.inf)
    kdist = np.sort(D, axis=1)[:, k - 1]
    neigh = [np.where(D[i] <= kdist[i])[0] for i in range(n)]
    lrd = np.empty(n)
    for i in range(n):
        reach = [max(kdist[j], D[i, j]) for j in neigh[i]]
        lrd[i] = len(neigh[i]) / sum(reach)
    out = np.empty(n)
    for i in range(n):
        out[i] = np.mean([lrd[j] for j in neigh[i]]) / lrd[i]
    return out


def lof_scores_loop(points: np.ndarray, k: int,
                    floor: float = 1e-12) -> np.ndarray:
    """LOF in the per-point loop form, over every pair of points.

    A distance is the square root of the squared coordinate differences
    added one coordinate at a time, floored at `floor`, so equal points sit
    exactly at the floor. Each point's tie-inclusive neighbor list is taken
    in the lexicographic order of the neighbors' coordinates (index order
    among equal points), and its score is the mean of the ratios
    lrd[neighbor] / lrd[point]. canids.baselines must match it bit for bit.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(X)
    if n <= k:
        raise ValueError(f"need more than k_neighbors={k} points, got {n}")
    d2 = np.zeros((n, n))
    for j in range(X.shape[1]):
        d2 += (X[:, j, None] - X[None, :, j]) ** 2
    d = np.maximum(np.sqrt(d2), floor)
    np.fill_diagonal(d, np.inf)  # self is not a neighbor
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort(X.T[::-1])] = np.arange(n)  # first column first

    kdist = np.partition(d, k - 1, axis=1)[:, k - 1]
    neigh_idx: list[np.ndarray] = []
    for p in range(n):
        idx = np.flatnonzero(d[p] <= kdist[p])  # includes ties
        neigh_idx.append(idx[np.argsort(rank[idx])])

    lrd = np.empty(n)
    for p in range(n):
        idx = neigh_idx[p]
        lrd[p] = len(idx) / np.sum(np.maximum(kdist[idx], d[p, idx]))
    scores = np.empty(n)
    for p in range(n):
        scores[p] = np.mean(lrd[neigh_idx[p]] / lrd[p])
    return scores


# --------------------------------------------------------------------------
# trailing-window band statistics, loop form


def sma_bands_oracle(x: np.ndarray, window: int, width: float):
    """Mean/std of the previous `window` values, flag outside mean +- width*std."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    mean = np.full(n, np.nan)
    std = np.full(n, np.nan)
    flags = np.zeros(n, dtype=np.int64)
    for i in range(window, n):
        past = x[i - window: i]
        mean[i] = past.mean()
        std[i] = past.std()
        if x[i] > mean[i] + width * std[i] or x[i] < mean[i] - width * std[i]:
            flags[i] = 1
    return mean, std, flags


def ewma_bands_oracle(x: np.ndarray, window: int, width: float):
    """Exponentially weighted mean/std of the values before each step (span
    `window`), flag outside mean +- width*std after the first `window`
    steps; one numpy scalar update per step."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    mean = np.full(n, np.nan)
    std = np.full(n, np.nan)
    lam = 2.0 / (window + 1.0)
    m = x[0]
    v = 0.0
    for i in range(1, n):
        mean[i] = m
        std[i] = np.sqrt(v)
        delta = x[i] - m
        incr = lam * delta
        m = m + incr
        v = (1.0 - lam) * (v + delta * incr)
    upper = mean + width * std
    lower = mean - width * std
    flags = np.zeros(n, dtype=np.int64)
    judged = np.arange(n) >= window
    flags[judged] = ((x[judged] > upper[judged])
                     | (x[judged] < lower[judged])).astype(np.int64)
    return mean, upper, lower, flags


def persistence_mse(windows: np.ndarray, targets: np.ndarray) -> float:
    """MSE of the no-model predictor 'next value = current value'."""
    diff = targets - windows[:, -1, :]
    return float(np.mean(diff * diff))


# --------------------------------------------------------------------------
# LSTM cell, one step at a time


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function as a boolean-mask split into the two
    overflow-free forms."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_cell_forward(W_x: np.ndarray, W_h: np.ndarray, b: np.ndarray,
                      x: np.ndarray, h_prev: np.ndarray,
                      c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One step in the per-step form canids.nn used before its layer
    functions: i,f,o sigmoid gates, g tanh candidate, c = f*c_prev + i*g,
    h = o*tanh(c). Returns (h, c, cache). The layer functions must match a
    step-by-step run of it bit for bit."""
    H = W_h.shape[1]
    if x.shape[-1] != W_x.shape[1]:
        raise ValueError(f"input width {x.shape[-1]}, cell expects {W_x.shape[1]}")
    if h_prev.shape[-1] != H or c_prev.shape[-1] != H:
        raise ValueError("state width does not match hidden_dim")
    z = x @ W_x.T + h_prev @ W_h.T + b
    gates = masked_sigmoid(z)
    i = gates[..., 0:H]
    f = gates[..., H: 2 * H]
    g = np.tanh(z[..., 2 * H: 3 * H])
    o = gates[..., 3 * H: 4 * H]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def lstm_cell_backward(W_x: np.ndarray, W_h: np.ndarray, cache: tuple,
                       g_h: np.ndarray, g_c: np.ndarray) -> tuple:
    """Backward of one batched (B, d) step of `lstm_cell_forward`.

    g_h, g_c: upstream gradients on this step's h and c. Returns
    (g_x, g_h_prev, g_c_prev, gW_x, gW_h, gb).
    """
    x, h_prev, c_prev, i, f, g, o, tc = cache
    d_o = g_h * tc
    g_c_tot = g_c + g_h * o * (1.0 - tc * tc)
    d_f = g_c_tot * c_prev
    d_i = g_c_tot * g
    d_g = g_c_tot * i
    g_c_prev = g_c_tot * f
    dz = np.concatenate([
        d_i * i * (1.0 - i),
        d_f * f * (1.0 - f),
        d_g * (1.0 - g * g),
        d_o * o * (1.0 - o),
    ], axis=-1)
    gW_x = dz.T @ x
    gW_h = dz.T @ h_prev
    gb = dz.sum(axis=0)
    g_x = dz @ W_x
    g_h_prev = dz @ W_h
    return g_x, g_h_prev, g_c_prev, gW_x, gW_h, gb


# --------------------------------------------------------------------------
# gradient checking (central differences)


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(fn, params: dict[str, np.ndarray], h: float = 1e-5,
               blocks: list[str] | None = None) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    fn(params) -> (loss, grads dict) and must be deterministic; two
    evaluations that disagree raise. Every coordinate of every checked
    block is perturbed by +-h. Mutates params transiently but restores
    each value exactly.
    """
    loss_a, grads = fn(params)
    loss_b, _ = fn(params)
    if loss_a != loss_b:
        raise RuntimeError(
            f"forward closure is not deterministic: {loss_a!r} != {loss_b!r}")
    report: dict[str, float] = {}
    for name in (blocks if blocks is not None else sorted(grads)):
        g = grads[name]
        p = params[name]
        worst = 0.0
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            lp, _ = fn(params)
            flat_p[idx] = orig - h
            lm, _ = fn(params)
            flat_p[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            worst = max(worst, relative_error(float(flat_g[idx]), numeric))
        report[name] = worst
    return report


# --------------------------------------------------------------------------
# online gateway, deque buffer and one prediction per scored frame


def run_online_loop(stream, model, detector, variant: str, scaling,
                    expected_period_ms: float,
                    config: OnlineConfig | None = None
                    ) -> list[FrameDisposition]:
    """The gateway loop with its history in a deque of the last L accepted
    vectors, stacked afresh for every scored frame, and one forward pass
    per scored frame. canids.controller.run_online must give the same
    dispositions and scores bit for bit."""
    config = config or OnlineConfig()
    scorer = Scorer(detector, variant, model.k)
    L = model.hyper.subsequence_length
    state = RateCheckerState(expected_period_ms=expected_period_ms,
                             tolerance_fraction=config.tolerance_fraction)
    buf: deque[np.ndarray] = deque(maxlen=L)
    out: list[FrameDisposition] = []
    for i, (ts, raw) in enumerate(stream):
        raw = np.asarray(raw, dtype=np.float64)
        flag = rate_check(state, ts)
        if flag == "too_fast":
            out.append(FrameDisposition(i, ts, "DroppedRateViolation", None,
                                        flag, len(buf) < L))
            continue
        scaled = scaling.apply(raw)
        finite = bool(np.isfinite(scaled).all())
        if len(buf) < L:
            if finite:
                buf.append(scaled)
            out.append(FrameDisposition(
                i, ts, "Delivered" if finite else "DroppedAnomalous", None,
                flag, True))
            continue
        window = np.stack(list(buf))
        pred = predict_last_batch(model, window[None])[0]
        score = (float(scorer.scores(pred[None], scaled[None])[0]) if finite
                 else None)
        if score is None or score < 0.0:
            buf.append(pred if config.substitution == "prediction"
                       else np.array(window[-1]))
            out.append(FrameDisposition(i, ts, "DroppedAnomalous", score,
                                        flag, False))
        else:
            buf.append(scaled)
            out.append(FrameDisposition(i, ts, "Delivered", score, flag,
                                        False))
    return out
