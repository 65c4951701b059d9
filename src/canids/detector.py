"""Deviation measures and the one-class detectors built on them.

The predictor's error on each message is summarized either as the signed
per-signal deviation vector (Diff) or as one of its absolute reductions
(Sum, Avg, Max). A nu-one-class SVM with an RBF kernel learns the region
those deviations occupy on normal traffic; with this kernel the enclosing
boundary is equivalent to the minimal hypersphere description. The ST
variant replaces the SVM with a fixed percentile threshold on the
max-absolute deviation.

Nothing here runs the predictor. Its callers predict first and then score:
offline detection, detector fitting and the online gateway all hand
predictions and their targets to `deviation_matrix` and `Scorer`;
`check_pairing` holds the rules for which detector serves which variant.

The SVM dual, minimize 1/2 a^T K a subject to 0 <= a_i <= 1/(nu n) and
sum a = 1, is solved by a maximal-violating-pair working-set loop. The nu
parameter keeps its usual guarantee: it upper-bounds the fraction of
training outliers and lower-bounds the fraction of support vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model_io
from .traces import from_json

VARIANTS = ("ST", "Diff", "Sum", "Avg", "Max")


# --------------------------------------------------------------------------
# deviations


def deviation_matrix(preds: np.ndarray, actuals: np.ndarray,
                     mode: str) -> np.ndarray:
    """Row-wise deviations for N messages in a variant's geometry: Diff is
    the signed (N, k) pred - actual; Sum, Avg and Max reduce its absolute
    values to (N, 1), ready to feed a detector. ST thresholds the
    max-absolute deviation, so it takes Max's geometry."""
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.shape != actuals.shape or preds.ndim != 2:
        raise ValueError("preds and actuals must be matching (N, k) arrays")
    delta = preds - actuals
    if mode == "Diff":
        return delta
    a = np.abs(delta)
    if mode == "Sum":
        return a.sum(axis=1, keepdims=True)
    if mode == "Avg":
        return a.mean(axis=1, keepdims=True)
    if mode in ("Max", "ST"):
        return a.max(axis=1, keepdims=True)
    raise ValueError(f"unknown deviation mode {mode!r}")


# --------------------------------------------------------------------------
# nu-one-class SVM


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float,
               B_sq: np.ndarray | None = None) -> np.ndarray:
    """K(x, y) = exp(-gamma ||x - y||^2), row x column. B_sq, the squared
    norms of B's rows, may come from a caller that keeps B fixed."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if B_sq is None:
        B_sq = np.sum(B * B, axis=1)
    d2 = (np.sum(A * A, axis=1)[:, None] + B_sq[None, :]
          - 2.0 * (A @ B.T))
    np.clip(d2, 0.0, None, out=d2)
    return np.exp(-gamma * d2)


@dataclass(frozen=True)
class OcsvmModel:
    support_vectors: np.ndarray  # (m, d)
    alphas: np.ndarray  # (m,), each in (0, 1/(nu n)]
    rho: float
    gamma: float
    nu: float
    n_train: int
    converged: bool = True
    kkt_gap: float = 0.0

    def __post_init__(self) -> None:
        sv = np.ascontiguousarray(self.support_vectors, dtype=np.float64)
        al = np.ascontiguousarray(self.alphas, dtype=np.float64)
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "alphas", al)
        if sv.ndim != 2 or al.shape != (len(sv),):
            raise ValueError("need one alpha per support vector row")
        if not (np.isfinite(sv).all() and np.isfinite(al).all()):
            raise ValueError("support vectors and alphas must be finite")
        if not (0 < self.nu <= 1 and 0 < self.gamma < np.inf
                and self.n_train >= 2):
            raise ValueError("invalid nu, gamma, or n_train")
        cap = 1.0 / (self.nu * self.n_train)
        if np.any(al < 0) or np.any(al > cap + 1e-12):
            raise ValueError("alphas outside [0, 1/(nu n)]")
        if abs(float(al.sum()) - 1.0) > 1e-9:
            raise ValueError("alphas must sum to 1")
        if not np.isfinite(self.rho):
            raise ValueError("rho must be finite")
        # the support vectors' squared norms, for every decision_values call
        object.__setattr__(self, "_sv_sq", np.sum(sv * sv, axis=1))

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]


def fit_ocsvm(points: np.ndarray, nu: float = 0.01, gamma: float | None = None,
              tol: float = 1e-3, max_iter: int = 10_000_000) -> OcsvmModel:
    """Solve the one-class dual by repeated maximal-violating-pair updates.

    gamma defaults to 1/d (reciprocal of the feature count). The solver is
    deterministic. If tol is not reached within max_iter updates the best
    iterate is returned with converged=False and a warning.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    if gamma is None:
        gamma = 1.0 / d
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not np.isfinite(X).all():
        raise ValueError("training points must be finite")

    C = 1.0 / (nu * n)
    K = rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)
    n_at_cap = int(np.floor(nu * n))
    alpha[:n_at_cap] = C
    if n_at_cap < n:
        alpha[n_at_cap] = 1.0 - n_at_cap * C
    g = K @ alpha

    converged = False
    gap = np.inf
    it = 0
    while it < max_iter:
        up_cand = np.where(alpha < C, g, np.inf)
        low_cand = np.where(alpha > 0.0, g, -np.inf)
        i_up = int(np.argmin(up_cand))
        i_low = int(np.argmax(low_cand))
        if not np.isfinite(up_cand[i_up]):
            # every alpha at the cap (nu = 1): nothing can move
            gap = 0.0
            converged = True
            break
        gap = float(g[i_low] - g[i_up])
        if gap <= tol:
            # confirm on a freshly computed gradient before declaring
            # victory; the incremental g drifts by rounding
            g = K @ alpha
            up_cand = np.where(alpha < C, g, np.inf)
            low_cand = np.where(alpha > 0.0, g, -np.inf)
            i_up = int(np.argmin(up_cand))
            i_low = int(np.argmax(low_cand))
            gap = float(g[i_low] - g[i_up])
            if gap <= tol:
                converged = True
                break
        eta = max(K[i_up, i_up] + K[i_low, i_low] - 2.0 * K[i_up, i_low],
                  1e-12)
        t = min(gap / eta, C - alpha[i_up], alpha[i_low])
        alpha[i_up] += t
        alpha[i_low] -= t
        g += t * (K[:, i_up] - K[:, i_low])
        it += 1
    if not converged:
        warnings.warn(
            f"one-class SVM stopped at max_iter={max_iter} with KKT gap "
            f"{gap:.3e} > tol {tol:.3e}", RuntimeWarning)

    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        rho = float(np.mean(g[free]))
    else:
        up_cand = np.where(alpha < C, g, np.inf)
        low_cand = np.where(alpha > 0.0, g, -np.inf)
        hi = float(np.min(up_cand)) if np.isfinite(up_cand).any() else 0.0
        lo = float(np.max(low_cand))
        rho = 0.5 * (hi + lo) if np.isfinite(hi) else lo
    sv_mask = alpha > 0.0
    return OcsvmModel(support_vectors=X[sv_mask], alphas=alpha[sv_mask],
                      rho=rho, gamma=gamma, nu=nu, n_train=n,
                      converged=converged, kkt_gap=max(gap, 0.0))


def decision_values(model: OcsvmModel, X: np.ndarray) -> np.ndarray:
    """f(x) = sum_i alpha_i K(sv_i, x) - rho per row. Positive means inside
    (normal); the value doubles as the ROC score, lower = more anomalous."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dim:
        raise ValueError(
            f"points have dim {X.shape[1]}, model expects {model.dim}")
    return rbf_kernel(X, model.support_vectors, model.gamma,
                      model._sv_sq) @ model.alphas - model.rho


def anomaly_flags(model: OcsvmModel, X: np.ndarray) -> np.ndarray:
    """1 = anomaly, strictly outside the boundary (f < 0); f = 0 is normal."""
    return (decision_values(model, X) < 0.0).astype(np.int64)


# --------------------------------------------------------------------------
# static threshold


@dataclass(frozen=True)
class StaticThreshold:
    """Fixed cutoff on the max-absolute deviation scalar."""

    threshold: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.threshold) or self.threshold <= 0:
            raise ValueError("threshold must be finite and positive")


def fit_static_threshold(training_deviations: np.ndarray,
                         percentile: float = 99.9) -> StaticThreshold:
    """Threshold at the given percentile of training max-abs deviations.

    Degenerate all-zero deviations would give a zero cutoff, which the
    positivity invariant forbids; the threshold is floored at 1e-12.
    """
    devs = np.atleast_2d(np.asarray(training_deviations, dtype=np.float64))
    if devs.size == 0:
        raise ValueError("need at least one training deviation")
    if not 50.0 < percentile <= 100.0:
        raise ValueError("percentile must lie in (50, 100]")
    scalars = np.abs(devs).max(axis=1)
    value = float(np.percentile(scalars, percentile))
    return StaticThreshold(threshold=max(value, 1e-12))


def static_scores(st: StaticThreshold, deviations: np.ndarray) -> np.ndarray:
    """threshold - max|delta| per row: negative = anomaly, same orientation
    as the SVM decision values."""
    devs = np.atleast_2d(np.asarray(deviations, dtype=np.float64))
    return st.threshold - np.abs(devs).max(axis=1)


# --------------------------------------------------------------------------
# scoring


def check_pairing(detector: OcsvmModel | StaticThreshold, variant: str,
                  k: int | None = None) -> None:
    """Raise ValueError unless `detector` can score `variant` deviations.

    ST takes a StaticThreshold; Diff an OcsvmModel over k-dim deviation
    vectors; Sum, Avg and Max an OcsvmModel over scalars. A detector file
    carries no k, so k=None leaves the Diff dimension unchecked.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "ST":
        if not isinstance(detector, StaticThreshold):
            raise ValueError("variant ST requires a StaticThreshold detector")
        return
    if not isinstance(detector, OcsvmModel):
        raise ValueError(f"variant {variant} requires an OcsvmModel detector "
                         "(only variant ST takes a StaticThreshold)")
    expected_dim = k if variant == "Diff" else 1
    if expected_dim is not None and detector.dim != expected_dim:
        raise ValueError(
            f"detector dimension {detector.dim} does not fit variant "
            f"{variant}, which needs {expected_dim}")


@dataclass(frozen=True)
class Scorer:
    """One variant's scoring step: take each prediction's deviation from
    its target in the variant's geometry and score it with the detector.

    Predictions and targets are scaled (N, k) rows of a model over k
    signals. Scores are positive for normal rows and negative for
    anomalies. The pairing is checked once, at construction.
    """

    detector: OcsvmModel | StaticThreshold
    variant: str
    k: int

    def __post_init__(self) -> None:
        check_pairing(self.detector, self.variant, self.k)

    def scores(self, preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Scores (N,) for predictions (N, k) against targets (N, k)."""
        devs = deviation_matrix(preds, targets, self.variant)
        if isinstance(self.detector, StaticThreshold):
            return static_scores(self.detector, devs)
        return decision_values(self.detector, devs)


# --------------------------------------------------------------------------
# serialization

_DETECTOR_VERSION = "detector-v1"


def save_detector(det: OcsvmModel | StaticThreshold, variant: str,
                  path) -> None:
    """Persist a detector with the variant name that produced its inputs."""
    check_pairing(det, variant)
    if isinstance(det, StaticThreshold):
        meta = {"version": _DETECTOR_VERSION, "kind": "static-threshold",
                "variant": variant, "threshold": det.threshold}
        model_io.save_arrays(path, "detector", meta, {})
        return
    meta = {
        "version": _DETECTOR_VERSION, "kind": "ocsvm", "variant": variant,
        "rho": det.rho, "gamma": det.gamma, "nu": det.nu,
        "n_train": det.n_train, "converged": det.converged,
        "kkt_gap": det.kkt_gap,
    }
    model_io.save_arrays(path, "detector", meta, {
        "support_vectors": det.support_vectors,
        "alphas": det.alphas,
    })


def load_detector(path) -> tuple[OcsvmModel | StaticThreshold, str]:
    """Load a detector and its variant name. A header that lacks a field or
    block, holds an unknown, mistyped or invalid one, or names a variant the
    detector cannot score raises ValueError naming the file."""
    meta, blocks = model_io.load_arrays(path, expected_type="detector")
    if meta.get("version") != _DETECTOR_VERSION:
        raise ValueError(
            f"{path}: detector version {meta.get('version')!r} unsupported")
    kind = meta.get("kind")
    if kind not in ("static-threshold", "ocsvm"):
        raise ValueError(f"{path}: unknown detector kind {kind!r}")
    cls = StaticThreshold if kind == "static-threshold" else OcsvmModel
    fields = {k: v for k, v in meta.items()
              if k not in ("version", "kind", "variant")}
    det = from_json(cls, {**blocks, **fields}, f"{path}: detector",
                    complete=True)
    variant = meta.get("variant")
    try:
        check_pairing(det, variant)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return det, variant
