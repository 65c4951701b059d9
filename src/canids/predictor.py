"""Next-message predictor: stacked LSTM encoder, causal self-attention,
stacked LSTM decoder.

Per window step s the input row is embedded, run through two stacked LSTM
encoder layers, and the second layer's state h2_s attends over h2_1..h2_s
(never later steps, so predictions are causal). The attention-applied
vector and h2_s are concatenated and projected (tanh) into the context
phi_s, which drives a two-layer LSTM decoder whose state carries across
steps within a window and resets between windows. A final linear layer
emits the predicted next signal vector at every step; training compares
only the last step against the window's target row.

Everything is trained with hand-derived backpropagation through time; the
gradient checker in `nn` is the authority on its correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model_io
from .nn import (
    AdamState,
    LstmCellParams,
    _check_finite,
    adam_step,
    init_linear,
    init_lstm_cell,
    lstm_cell_backward,
    lstm_cell_forward,
    mse_loss,
    softmax,
)
from .traces import Trace, window_arrays

MODEL_VERSION = "predictor-v1"
LOSS_MODES = ("last", "all")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(
            f"training diverged: non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class PredictorHyper:
    """Architecture and training knobs.

    loss_mode "last" scores only the final step's prediction against the
    window target; "all" additionally penalizes every intermediate step
    against the next input row (experimentation only, non-default).
    """

    subsequence_length: int = 32
    embed_dim: int = 128
    hidden_dim: int = 64
    batch_size: int = 256
    learning_rate: float = 1e-4
    max_epochs: int = 500
    patience: int = 10
    loss_mode: str = "last"

    def __post_init__(self) -> None:
        for name in ("subsequence_length", "embed_dim", "hidden_dim",
                     "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")


def param_shapes(k: int, embed_dim: int, hidden_dim: int) -> dict[str, tuple]:
    e, h = embed_dim, hidden_dim
    return {
        "embed.W": (e, k), "embed.b": (e,),
        "enc1.W_x": (4 * h, e), "enc1.W_h": (4 * h, h), "enc1.b": (4 * h,),
        "enc2.W_x": (4 * h, h), "enc2.W_h": (4 * h, h), "enc2.b": (4 * h,),
        "attn.W": (h, h), "attn.b": (h,),
        "combine.W": (h, 2 * h), "combine.b": (h,),
        "dec1.W_x": (4 * h, h), "dec1.W_h": (4 * h, h), "dec1.b": (4 * h,),
        "dec2.W_x": (4 * h, h), "dec2.W_h": (4 * h, h), "dec2.b": (4 * h,),
        "out.W": (k, h), "out.b": (k,),
    }


@dataclass(frozen=True)
class PredictorModel:
    """A predictor's architecture and weights.

    Construction checks every parameter block's shape and rejects
    non-finite weights, so built, trained and loaded models are all
    checked once here and the forward pass does not re-scan them.
    """

    k: int
    hyper: PredictorHyper
    params: dict[str, np.ndarray]
    version: str = MODEL_VERSION

    def __post_init__(self) -> None:
        expected = param_shapes(self.k, self.hyper.embed_dim,
                                self.hyper.hidden_dim)
        if set(self.params) != set(expected):
            raise ValueError("parameter blocks do not match the architecture")
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise ValueError(
                    f"block {name!r} has shape {self.params[name].shape}, "
                    f"expected {shape}")
            if not np.isfinite(self.params[name]).all():
                raise ValueError(f"block {name!r} holds non-finite values")

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def parameter_count_closed_form(self) -> int:
        """The count as an explicit sum over layer dimensions; must equal
        parameter_count() for any (k, embed_dim, hidden_dim)."""
        k, e, h = self.k, self.hyper.embed_dim, self.hyper.hidden_dim
        embed = e * k + e
        enc1 = 4 * h * e + 4 * h * h + 4 * h
        stacked = 4 * h * h + 4 * h * h + 4 * h  # enc2, dec1, dec2 alike
        attn = h * h + h
        combine = h * 2 * h + h
        out = k * h + k
        return embed + enc1 + 3 * stacked + attn + combine + out


def build_model(k: int, hyper: PredictorHyper | None = None,
                seed: int = 0) -> PredictorModel:
    """Seeded construction; identical (k, hyper, seed) gives bit-identical
    weights. Initialization order is fixed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hyper = hyper or PredictorHyper()
    e, h = hyper.embed_dim, hyper.hidden_dim
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    params["embed.W"], params["embed.b"] = init_linear(rng, e, k)
    for name, d_in in (("enc1", e), ("enc2", h)):
        cell = init_lstm_cell(rng, h, d_in)
        params[f"{name}.W_x"], params[f"{name}.W_h"], params[f"{name}.b"] = (
            cell.W_x, cell.W_h, cell.b)
    params["attn.W"], params["attn.b"] = init_linear(rng, h, h)
    params["combine.W"], params["combine.b"] = init_linear(rng, h, 2 * h)
    for name in ("dec1", "dec2"):
        cell = init_lstm_cell(rng, h, h)
        params[f"{name}.W_x"], params[f"{name}.W_h"], params[f"{name}.b"] = (
            cell.W_x, cell.W_h, cell.b)
    params["out.W"], params["out.b"] = init_linear(rng, k, h)
    return PredictorModel(k=k, hyper=hyper, params=params)


# --------------------------------------------------------------------------
# forward / backward


def _forward_batch(params: dict[str, np.ndarray], windows: np.ndarray,
                   want_cache: bool) -> tuple[np.ndarray, dict | None]:
    """Run B windows of shape (B, L, k); returns predictions (B, L, k).

    Attention at step s: score_j = <attn(h2_s), h2_j> for j <= s,
    alpha = softmax(scores), a = sum_j alpha_j h2_j and
    phi_s = tanh(combine([a ; h2_s])).
    """
    B, L, k = windows.shape
    H = params["attn.W"].shape[0]
    cell = {
        name: LstmCellParams(W_x=params[f"{name}.W_x"],
                             W_h=params[f"{name}.W_h"], b=params[f"{name}.b"])
        for name in ("enc1", "enc2", "dec1", "dec2")
    }
    e_all = windows @ params["embed.W"].T + params["embed.b"]
    H2 = np.zeros((B, L, H))
    D2 = np.zeros((B, L, H))
    zeros = np.zeros((B, H))
    h1 = c1 = h2 = c2 = d1 = dc1 = d2 = dc2 = zeros
    enc1_c, enc2_c, dec1_c, dec2_c = [], [], [], []
    alphas, qs, phis, concats = [], [], [], []
    for s in range(L):
        h1, c1, cch = lstm_cell_forward(cell["enc1"], e_all[:, s], h1, c1)
        if want_cache:
            enc1_c.append(cch)
        h2, c2, cch = lstm_cell_forward(cell["enc2"], h1, h2, c2)
        if want_cache:
            enc2_c.append(cch)
        H2[:, s] = h2
        q = h2 @ params["attn.W"].T + params["attn.b"]
        keys = H2[:, : s + 1]
        scores = np.einsum("bh,bjh->bj", q, keys)
        alpha = softmax(scores, axis=-1)
        a = np.einsum("bj,bjh->bh", alpha, keys)
        concat = np.concatenate([a, h2], axis=-1)
        phi = np.tanh(concat @ params["combine.W"].T + params["combine.b"])
        if want_cache:
            alphas.append(alpha)
            qs.append(q)
            phis.append(phi)
            concats.append(concat)
        d1, dc1, cch = lstm_cell_forward(cell["dec1"], phi, d1, dc1)
        if want_cache:
            dec1_c.append(cch)
        d2, dc2, cch = lstm_cell_forward(cell["dec2"], d1, d2, dc2)
        if want_cache:
            dec2_c.append(cch)
        D2[:, s] = d2
    preds = D2 @ params["out.W"].T + params["out.b"]
    if not want_cache:
        return preds, None
    cache = {
        "windows": windows, "e_all": e_all, "H2": H2, "D2": D2,
        "enc1": enc1_c, "enc2": enc2_c, "dec1": dec1_c, "dec2": dec2_c,
        "alpha": alphas, "q": qs, "phi": phis, "concat": concats,
        "cell": cell,
    }
    return preds, cache


def _backward_batch(params: dict[str, np.ndarray], cache: dict,
                    g_preds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with upstream g_preds on the (B, L, k)
    prediction tensor. Attention makes h2_j live in every later step, so
    its gradient buffer is filled by steps >= j before enc2 consumes it."""
    windows, H2, D2 = cache["windows"], cache["H2"], cache["D2"]
    cell = cache["cell"]
    B, L, k = g_preds.shape
    H = H2.shape[2]
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    grads["out.W"] = np.einsum("blk,blh->kh", g_preds, D2)
    grads["out.b"] = g_preds.sum(axis=(0, 1))
    gD2 = g_preds @ params["out.W"]
    g_h2_buf = np.zeros((B, L, H))
    zero = np.zeros((B, H))
    gd2h = gd2c = gd1h = gd1c = gh2 = gc2 = gh1 = gc1 = zero
    g_e_all = np.empty((B, L, cache["e_all"].shape[2]))
    for s in reversed(range(L)):
        gx, gd2h, gd2c, gWx, gWh, gb = lstm_cell_backward(
            cell["dec2"], cache["dec2"][s], gD2[:, s] + gd2h, gd2c)
        grads["dec2.W_x"] += gWx
        grads["dec2.W_h"] += gWh
        grads["dec2.b"] += gb
        g_phi, gd1h, gd1c, gWx, gWh, gb = lstm_cell_backward(
            cell["dec1"], cache["dec1"][s], gx + gd1h, gd1c)
        grads["dec1.W_x"] += gWx
        grads["dec1.W_h"] += gWh
        grads["dec1.b"] += gb
        phi = cache["phi"][s]
        g_pre = g_phi * (1.0 - phi * phi)
        grads["combine.W"] += g_pre.T @ cache["concat"][s]
        grads["combine.b"] += g_pre.sum(axis=0)
        g_concat = g_pre @ params["combine.W"]
        g_a, g_h2_direct = g_concat[:, :H], g_concat[:, H:]
        alpha = cache["alpha"][s]
        q = cache["q"][s]
        keys = H2[:, : s + 1]
        g_alpha = np.einsum("bh,bjh->bj", g_a, keys)
        g_h2_buf[:, : s + 1] += alpha[..., None] * g_a[:, None, :]
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(-1, keepdims=True))
        g_q = np.einsum("bj,bjh->bh", g_scores, keys)
        g_h2_buf[:, : s + 1] += g_scores[..., None] * q[:, None, :]
        grads["attn.W"] += g_q.T @ H2[:, s]
        grads["attn.b"] += g_q.sum(axis=0)
        g_h2_buf[:, s] += g_q @ params["attn.W"] + g_h2_direct
        gx, gh2, gc2, gWx, gWh, gb = lstm_cell_backward(
            cell["enc2"], cache["enc2"][s], g_h2_buf[:, s] + gh2, gc2)
        grads["enc2.W_x"] += gWx
        grads["enc2.W_h"] += gWh
        grads["enc2.b"] += gb
        g_e, gh1, gc1, gWx, gWh, gb = lstm_cell_backward(
            cell["enc1"], cache["enc1"][s], gx + gh1, gc1)
        grads["enc1.W_x"] += gWx
        grads["enc1.W_h"] += gWh
        grads["enc1.b"] += gb
        g_e_all[:, s] = g_e
    grads["embed.W"] = np.einsum("ble,blk->ek", g_e_all, windows)
    grads["embed.b"] = g_e_all.sum(axis=(0, 1))
    return grads


def predict_last_batch(model: PredictorModel, windows: np.ndarray,
                       batch_size: int = 1024) -> np.ndarray:
    """Last-step predictions for many windows (N, L, k) -> (N, k).

    Raises FloatingPointError if any prediction is not finite, which
    happens when a window holds non-finite values.
    """
    windows = np.asarray(windows, dtype=np.float64)
    out = np.empty((len(windows), model.k))
    for lo in range(0, len(windows), batch_size):
        preds, _ = _forward_batch(model.params, windows[lo: lo + batch_size],
                                  want_cache=False)
        out[lo: lo + len(preds)] = preds[:, -1]
    _check_finite("predictions", out)
    return out


def loss_and_grads(params: dict[str, np.ndarray], windows: np.ndarray,
                   targets: np.ndarray, loss_mode: str = "last"
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and parameter gradients.

    "last": MSE between each window's final prediction and its target.
    "all": every step s additionally predicts input row s+1; the final
    step still predicts the target.
    """
    preds, cache = _forward_batch(params, windows, want_cache=True)
    B, L, k = preds.shape
    if loss_mode == "last":
        loss, g_last = mse_loss(preds[:, -1], targets)
        g_preds = np.zeros_like(preds)
        g_preds[:, -1] = g_last
    else:
        full_targets = np.concatenate([windows[:, 1:], targets[:, None]], axis=1)
        loss, g_preds = mse_loss(preds, full_targets)
    return loss, _backward_batch(params, cache, g_preds)


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int  # 0-based index into the loss lists
    stop_reason: str  # "patience" or "max_epochs"

    def __post_init__(self) -> None:
        if self.val_loss and self.val_loss[self.best_epoch] != min(self.val_loss):
            raise ValueError("best_epoch must hold the minimum val loss")


def _epoch_loss(params: dict, X: np.ndarray, Y: np.ndarray,
                batch_size: int) -> float:
    """Mean squared last-step error over a whole window set."""
    total = 0.0
    for lo in range(0, len(X), batch_size):
        preds, _ = _forward_batch(params, X[lo: lo + batch_size],
                                  want_cache=False)
        d = preds[:, -1] - Y[lo: lo + batch_size]
        total += float(np.sum(d * d))
    return total / Y.size


def train(model: PredictorModel, train_trace: Trace, val_trace: Trace,
          hyper: PredictorHyper | None = None
          ) -> tuple[PredictorModel, TrainHistory]:
    """Fit the predictor on scaled traces; returns a new model.

    Windows are consumed in sequential order (no shuffling; the temporal
    relationships are the signal being learned). Validation loss is
    measured after every epoch; training stops when it fails to improve
    for `patience` consecutive epochs or at max_epochs, and the weights
    of the best epoch are restored. The procedure draws no randomness
    beyond the model's own initialization.
    """
    hyper = hyper or model.hyper
    L = hyper.subsequence_length
    X_tr, Y_tr = window_arrays(train_trace, L)
    X_va, Y_va = window_arrays(val_trace, L)
    params = {name: p.copy() for name, p in model.params.items()}
    opt = AdamState(lr=hyper.learning_rate)
    best_val = np.inf
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    bad_epochs = 0
    train_hist: list[float] = []
    val_hist: list[float] = []
    stop_reason = "max_epochs"
    for epoch in range(hyper.max_epochs):
        se_sum = 0.0
        for bi, lo in enumerate(range(0, len(X_tr), hyper.batch_size)):
            xb = X_tr[lo: lo + hyper.batch_size]
            yb = Y_tr[lo: lo + hyper.batch_size]
            loss, grads = loss_and_grads(params, xb, yb, hyper.loss_mode)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, bi)
            se_sum += loss * yb.size
            adam_step(opt, params, grads)
        train_hist.append(se_sum / Y_tr.size)
        val = _epoch_loss(params, X_va, Y_va, hyper.batch_size)
        if not np.isfinite(val):
            raise TrainingDiverged(epoch, -1)
        val_hist.append(val)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_params = {name: p.copy() for name, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hyper.patience:
                stop_reason = "patience"
                break
    trained = PredictorModel(k=model.k, hyper=hyper, params=best_params)
    history = TrainHistory(train_loss=tuple(train_hist),
                           val_loss=tuple(val_hist),
                           best_epoch=best_epoch, stop_reason=stop_reason)
    return trained, history


# --------------------------------------------------------------------------
# serialization


def save_model(model: PredictorModel, path,
               extra_meta: dict | None = None) -> None:
    """Write the model file; extra_meta keys (schema, scaling, provenance)
    ride along in the header and are returned by load_model_file."""
    meta = {
        "version": model.version,
        "k": model.k,
        "hyper": {
            "subsequence_length": model.hyper.subsequence_length,
            "embed_dim": model.hyper.embed_dim,
            "hidden_dim": model.hyper.hidden_dim,
            "batch_size": model.hyper.batch_size,
            "learning_rate": model.hyper.learning_rate,
            "max_epochs": model.hyper.max_epochs,
            "patience": model.hyper.patience,
            "loss_mode": model.hyper.loss_mode,
        },
        "parameter_count": model.parameter_count(),
    }
    for key, value in (extra_meta or {}).items():
        if key in meta:
            raise ValueError(f"extra_meta may not override {key!r}")
        meta[key] = value
    blocks = {name: model.params[name] for name in sorted(model.params)}
    model_io.save_arrays(path, "predictor", meta, blocks)


def load_model_file(path, expected_k: int | None = None
                    ) -> tuple[PredictorModel, dict]:
    """Load a model plus its full header metadata."""
    meta, blocks = model_io.load_arrays(path, expected_type="predictor")
    if meta.get("version") != MODEL_VERSION:
        raise ValueError(
            f"{path}: predictor version {meta.get('version')!r} unsupported")
    k = int(meta["k"])
    if expected_k is not None and k != expected_k:
        raise ValueError(
            f"{path}: model is for k={k}, expected k={expected_k}")
    hyper = PredictorHyper(**meta["hyper"])
    return PredictorModel(k=k, hyper=hyper, params=blocks), meta


def load_model(path, expected_k: int | None = None) -> PredictorModel:
    model, _ = load_model_file(path, expected_k)
    return model


def parameter_count_note(model: PredictorModel) -> str:
    """Human-readable size report for the default architecture."""
    n = model.parameter_count()
    note = (
        f"predictor parameters: {n} ({n / 1e3:.1f}x10^3) for k={model.k}, "
        f"embed_dim={model.hyper.embed_dim}, hidden_dim={model.hyper.hidden_dim}; "
        "counted as embed + 2 encoder LSTM layers + attention projection + "
        "combine projection + 2 decoder LSTM layers + output layer")
    if (model.hyper.embed_dim, model.hyper.hidden_dim) == (128, 64):
        # informational only: the published figure of ~331x10^3 for this
        # architecture family does not state its layer widths, so the two
        # counts are not directly comparable
        note += ("; published reference figure for the architecture family: "
                 "~331x10^3 (layer widths unstated there, so the counts are "
                 "not directly comparable)")
    return note
