"""Next-message predictor: stacked LSTM encoder, causal self-attention,
stacked LSTM decoder.

A window of L rows runs through the model in three stages, in the order
its data flows:

1. Encoder. Each row is embedded and run through two stacked LSTM layers;
   the second layer's states h2_1..h2_L are collected.
2. Attention, one pass for all steps. Step s attends over h2_1..h2_s
   (never later steps, so predictions are causal): the scores of later
   steps are masked to -inf before one softmax over the (L, L) score
   matrix. The attention-applied vector and h2_s are concatenated and
   projected (tanh) into the context phi_s.
3. Decoder. A two-layer LSTM runs over phi_1..phi_L, its state carried
   across steps within a window and reset between windows.

Only the LSTM layers are recurrent, and attention reads nothing from the
decoder, so the stages can run one after the other. A final linear layer
emits the predicted next signal vector at every step; training compares
only the last step against the window's target row.

`param_shapes` is the one architecture table: models are checked and
initialized from it. `predict_last_batch` is the one forward-only path,
for validation, detection, detector fitting and the gateway alike.

Everything is trained with hand-derived backpropagation through time; the
finite-difference gradient checks in the test suite are the authority on
its correctness.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import model_io, nn
from .nn import (
    AdamState,
    _check_finite,
    adam_step,
    lstm_layer_backward,
    lstm_layer_forward,
    mse_loss,
    softmax,
)
from .traces import Trace, from_json, json_value, window_arrays

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


def build_model(k: int, hyper: PredictorHyper | None = None,
                seed: int = 0) -> PredictorModel:
    """Seeded construction; identical (k, hyper, seed) gives bit-identical
    weights. Each block of `param_shapes`, in its order: a matrix uniform
    in +-1/sqrt(shape[1]), a bias zero except an LSTM layer's forget block
    (gate rows [input; forget; candidate; output]), which is 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hyper = hyper or PredictorHyper()
    shapes = param_shapes(k, hyper.embed_dim, hyper.hidden_dim)
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
            if f"{name.split('.')[0]}.W_h" in shapes:  # an LSTM layer
                h = shape[0] // 4
                params[name][h: 2 * h] = 1.0
    return PredictorModel(k=k, hyper=hyper, params=params)


# --------------------------------------------------------------------------
# forward / backward


@functools.lru_cache(maxsize=16)
def _causal_mask(L: int) -> np.ndarray:
    """(L, L) additive score mask: 0 where step s may attend to step j
    (j <= s), -inf above the diagonal."""
    mask = np.triu(np.full((L, L), -np.inf), k=1)
    mask.flags.writeable = False
    return mask


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ W.T + b over the last axis of a (B, L, d) stack, as one (B*L, d)
    matrix product: numpy would run one small product per window."""
    B, L, d = x.shape
    y = x.reshape(B * L, d) @ W.T
    y += b
    return y.reshape(B, L, W.shape[0])


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over windows and steps of the outer products g x^T, for
    (B, L, out) and (B, L, in) stacks, as one matrix product."""
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def _lstm(params: dict[str, np.ndarray], name: str, X: np.ndarray,
          want_cache: bool) -> tuple[np.ndarray, tuple | None]:
    return lstm_layer_forward(params[f"{name}.W_x"], params[f"{name}.W_h"],
                              params[f"{name}.b"], X, want_cache)


def _lstm_backward(params: dict[str, np.ndarray],
                   grads: dict[str, np.ndarray], name: str, cache: tuple,
                   g_H: np.ndarray) -> np.ndarray:
    g_X, grads[f"{name}.W_x"], grads[f"{name}.W_h"], grads[f"{name}.b"] = (
        lstm_layer_backward(params[f"{name}.W_x"], params[f"{name}.W_h"],
                            cache, g_H))
    return g_X


def _forward_batch(params: dict[str, np.ndarray], windows: np.ndarray,
                   want_cache: bool) -> tuple[np.ndarray, dict | None]:
    """Run B windows of shape (B, L, k); returns predictions (B, L, k).

    One call per layer, in the model's dataflow order: embed, enc1, enc2,
    one causal attention pass over every step at once, dec1, dec2, out.
    The attention pass computes scores[s, j] = <attn(h2_s), h2_j>, set to
    -inf for j > s, alpha = softmax(scores) (zero above the diagonal),
    a_s = sum_j alpha[s, j] h2_j and phi_s = tanh(combine([a_s ; h2_s])).

    The cache holds the attention tensors stacked over steps (q, alpha,
    concat, phi) and each LSTM layer's stacked cache.
    """
    B, L, k = windows.shape
    H = params["attn.W"].shape[0]
    e_all = _affine(windows, params["embed.W"], params["embed.b"])
    H1, enc1 = _lstm(params, "enc1", e_all, want_cache)
    H2, enc2 = _lstm(params, "enc2", H1, want_cache)

    q = _affine(H2, params["attn.W"], params["attn.b"])
    scores = q @ H2.transpose(0, 2, 1)
    scores += _causal_mask(L)
    alpha = softmax(scores)
    # filled and activated in place: at batch 1024 these stacks are
    # megabytes, and each extra temporary costs more than the arithmetic
    concat = np.empty((B, L, 2 * H))
    np.matmul(alpha, H2, out=concat[..., :H])
    concat[..., H:] = H2
    phi = _affine(concat, params["combine.W"], params["combine.b"])
    np.tanh(phi, out=phi)

    D1, dec1 = _lstm(params, "dec1", phi, want_cache)
    D2, dec2 = _lstm(params, "dec2", D1, want_cache)
    preds = _affine(D2, params["out.W"], params["out.b"])
    if not want_cache:
        return preds, None
    cache = {
        "windows": windows, "H2": H2, "D2": D2,
        "enc1": enc1, "enc2": enc2, "dec1": dec1, "dec2": dec2,
        "q": q, "alpha": alpha, "concat": concat, "phi": phi,
    }
    return preds, cache


def _backward_batch(params: dict[str, np.ndarray], cache: dict,
                    g_preds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with upstream g_preds on the (B, L, k)
    prediction tensor, one call per layer in the reverse of the forward:
    out, dec2, dec1, attention, enc2, enc1, embed. In the attention pass
    each h2_j receives from every step s >= j that attends to it.
    """
    windows, H2, D2 = cache["windows"], cache["H2"], cache["D2"]
    q, alpha, concat, phi = (cache[n] for n in ("q", "alpha", "concat", "phi"))
    H = H2.shape[2]
    grads: dict[str, np.ndarray] = {}
    grads["out.W"] = _weight_grad(g_preds, D2)
    grads["out.b"] = g_preds.sum(axis=(0, 1))
    gD2 = g_preds @ params["out.W"]
    gD1 = _lstm_backward(params, grads, "dec2", cache["dec2"], gD2)
    g_phi = _lstm_backward(params, grads, "dec1", cache["dec1"], gD1)

    g_pre = g_phi * (1.0 - phi * phi)
    grads["combine.W"] = _weight_grad(g_pre, concat)
    grads["combine.b"] = g_pre.sum(axis=(0, 1))
    g_concat = g_pre @ params["combine.W"]
    g_a = g_concat[..., :H]
    g_alpha = g_a @ H2.transpose(0, 2, 1)
    # alpha is 0 above the diagonal, so g_scores is too
    g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(-1, keepdims=True))
    g_q = g_scores @ H2
    grads["attn.W"] = _weight_grad(g_q, H2)
    grads["attn.b"] = g_q.sum(axis=(0, 1))
    g_H2 = (g_concat[..., H:] + alpha.transpose(0, 2, 1) @ g_a
            + g_scores.transpose(0, 2, 1) @ q + g_q @ params["attn.W"])

    g_H1 = _lstm_backward(params, grads, "enc2", cache["enc2"], g_H2)
    g_e_all = _lstm_backward(params, grads, "enc1", cache["enc1"], g_H1)
    grads["embed.W"] = _weight_grad(g_e_all, windows)
    grads["embed.b"] = g_e_all.sum(axis=(0, 1))
    return grads


def predict_last_batch(model: PredictorModel,
                       windows: np.ndarray) -> np.ndarray:
    """Last-step predictions for many windows (N, L, k) -> (N, k).

    The windows run in near-equal blocks of at most `nn._GATE_ENTRIES`
    gate entries each. No block of several windows is cut down to one: a
    single row takes numpy's matrix-vector path, which rounds differently.

    Raises FloatingPointError if any prediction is not finite, which
    happens when a window holds non-finite values.
    """
    windows = np.asarray(windows, dtype=np.float64)
    n = len(windows)
    rows = max(2, nn._GATE_ENTRIES // (4 * model.hyper.hidden_dim))
    n_blocks = -(-n // rows)
    out = np.empty((n, model.k))
    lo = 0
    for i in range(n_blocks):
        hi = lo + n // n_blocks + (i < n % n_blocks)
        preds, _ = _forward_batch(model.params, windows[lo:hi],
                                  want_cache=False)
        out[lo:hi] = preds[:, -1]
        lo = hi
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


def train(model: PredictorModel, train_trace: Trace, val_trace: Trace
          ) -> tuple[PredictorModel, TrainHistory]:
    """Fit the predictor on scaled traces with the knobs of model.hyper;
    returns a new model.

    Windows are consumed in sequential order (no shuffling; the temporal
    relationships are the signal being learned). Validation loss, from
    `predict_last_batch` one `batch_size` slice at a time, is measured
    after every epoch; training stops when it fails to improve for
    `patience` consecutive epochs or at max_epochs, and the weights of the
    best epoch are restored. A non-finite loss raises
    TrainingDiverged(epoch, batch), batch -1 for validation; a non-finite
    validation prediction raises FloatingPointError. The procedure draws
    no randomness beyond the model's own initialization. A warm start with
    other training knobs is `train(dataclasses.replace(model, hyper=...),
    ...)`, whose construction checks the new hyper against the weights.
    """
    hyper = model.hyper
    L = hyper.subsequence_length
    X_tr, Y_tr = window_arrays(train_trace, L)
    X_va, Y_va = window_arrays(val_trace, L)
    params = {name: p.copy() for name, p in model.params.items()}
    # adam_step updates params in place, so `current` validates them as is
    current = PredictorModel(k=model.k, hyper=hyper, params=params)
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
        val_se = 0.0
        for lo in range(0, len(X_va), hyper.batch_size):
            d = (predict_last_batch(current, X_va[lo: lo + hyper.batch_size])
                 - Y_va[lo: lo + hyper.batch_size])
            val_se += float(np.sum(d * d))
        val = val_se / Y_va.size
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
        "version": MODEL_VERSION,
        "k": model.k,
        "hyper": asdict(model.hyper),
        "parameter_count": model.parameter_count(),
    }
    for key, value in (extra_meta or {}).items():
        if key in meta:
            raise ValueError(f"extra_meta may not override {key!r}")
        meta[key] = value
    blocks = {name: model.params[name] for name in sorted(model.params)}
    model_io.save_arrays(path, "predictor", meta, blocks)


def load_model_file(path) -> tuple[PredictorModel, dict]:
    """Load a model plus its full header metadata.

    A header whose k or hyper block is missing, mistyped or does not fit
    the stored blocks raises ValueError naming the file.
    """
    meta, blocks = model_io.load_arrays(path, expected_type="predictor")
    if meta.get("version") != MODEL_VERSION:
        raise ValueError(
            f"{path}: predictor version {meta.get('version')!r} unsupported")
    k = json_value(meta.get("k"), int, f"{path}: k")
    hyper = from_json(PredictorHyper, meta.get("hyper"), f"{path}: hyper",
                      complete=True)
    try:
        model = PredictorModel(k=k, hyper=hyper, params=blocks)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, meta


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
