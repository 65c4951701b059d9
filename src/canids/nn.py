"""Dense numerical kernel for the sequence predictor.

Plain numpy, float64 everywhere: the gradient checks that gate every
backward pass here run at 1e-4 relative tolerance, which single precision
cannot sustain. Layers come in forward/backward pairs with explicit caches
instead of an autodiff graph; parameters live in flat name->array dicts so
the optimizer and the test suite's gradient checker can treat them
uniformly.

An LSTM layer runs over a whole batch of sequences (B, L, d) in one call,
step by step inside; the B rows are independent passes. Its weights are
W_x (4H, D), W_h (4H, H) and b (4H,), gate rows stacked [input; forget;
candidate; output]; `predictor.build_model` initializes them, as every
other block, from the predictor's one table of shapes. One step's cell
math is `lstm_step`, which the layer and the predictor's stream step
(`predictor.StreamPredictor`) share.

Finiteness and shapes are checked at the boundaries, not per step: the
predictor checks every weight block's shape and rejects non-finite weights
once, when a model is built, trained or loaded, and checks its predictions
once per forward pass. The LSTM layer functions check nothing. `softmax`
checks its row maxima, which it computes anyway, and the predictor calls
it once per forward pass over every step's scores (once per stream step
over every window's); `adam_step` checks each gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite values in {name}")


# --------------------------------------------------------------------------
# LSTM layer

# gate entries (rows x 4H) one call holds at once: the block height of
# `predictor.predict_last_batch` (256 windows of a 16-unit model, 64 of the
# default 64-unit one) and how many steps' input terms a layer computes in
# one stacked product. Large batches stay at one step per call: hoisting
# every step of a default-model training batch made each step slower.
_GATE_ENTRIES = 1 << 14


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both written with e = e^-|z| <= 1, so the numerator
    max(e, copysign(1, z)) is 1 or e (1 at z = -0.0 too, where e = 1; NaN
    for NaN).

    Two buffers, each op in place: a float numerator keeps `maximum` on its
    float-only loop, which costs half of the bool-operand one at gateway
    sizes, and a large gate block makes no further temporaries.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.copysign(1.0, z)
    np.maximum(e, num, out=num)
    e += 1.0
    num /= e
    return num


def lstm_step(xw: np.ndarray, h: np.ndarray, c: np.ndarray,
              W_hT: np.ndarray, b: np.ndarray, h_out: np.ndarray
              ) -> tuple[np.ndarray, ...]:
    """One LSTM step for a stack of rows.

    xw holds the step's input terms x W_x^T and is overwritten with
    z = xw + h W_h^T + b; i, f, o are its sigmoid gates and g its tanh
    candidate; c' = f*c + i*g and h' = o*tanh(c'), written into h_out,
    which may overlap h. Returns (h', c', gates, g, tanh(c')), the
    candidate block of gates holding a discarded sigmoid.

    Rows run along every axis but the last: `lstm_layer_forward` steps a
    (B, H) batch, `predictor.StreamPredictor` an (L, 1, H) stack whose
    `h @ W_hT` is one (1, H) product per row.
    """
    xw += h @ W_hT
    xw += b
    H = c.shape[-1]
    # one sigmoid pass over all four gate blocks; the candidate block's
    # sigmoid is discarded, which costs less than three separate passes
    gates = _sigmoid(xw)
    g = np.tanh(xw[..., 2 * H: 3 * H])
    c = gates[..., H: 2 * H] * c + gates[..., :H] * g
    tc = np.tanh(c)
    h = np.multiply(gates[..., 3 * H:], tc, out=h_out)
    return h, c, gates, g, tc


def lstm_layer_forward(W_x: np.ndarray, W_h: np.ndarray, b: np.ndarray,
                       X: np.ndarray, want_cache: bool
                       ) -> tuple[np.ndarray, tuple | None]:
    """Run one LSTM layer over B sequences X (B, L, D) from zero states.

    Step s: z = x_s W_x^T + h W_h^T + b; i, f, o sigmoid gates, g tanh
    candidate; c = f*c + i*g, h = o*tanh(c). Returns the hidden states
    (B, L, H) and, with want_cache, the stacks the backward needs: X, the
    hidden states (L+1, B, H) and cell states (L+1, B, H) with the zero
    initial state first, the gate activations (L, B, 4H) with tanh in the
    candidate block, and tanh(c) (L, B, H). Shapes are the caller's to
    check.

    The input terms x_s W_x^T of as many steps as fit `_GATE_ENTRIES` run
    as one stacked product, all L steps at batch 1 and one step at a time
    from batch 256 of a 16-unit layer. Each stack item is the (B, D) @
    (D, 4H) product that step alone would make, so the outputs do not
    depend on how many steps share a call.
    """
    B, L, _ = X.shape
    H = W_h.shape[1]
    W_xT, W_hT = W_x.T, W_h.T
    steps = max(1, _GATE_ENTRIES // (B * 4 * H))
    out = np.empty((B, L, H))
    h = c = np.zeros((B, H))
    if want_cache:
        hs = np.empty((L + 1, B, H))
        cs = np.empty((L + 1, B, H))
        hs[0] = cs[0] = 0.0
        gates_all = np.empty((L, B, 4 * H))
        tcs = np.empty((L, B, H))
    for s in range(L):
        if s % steps == 0:
            xw = np.matmul(X[:, s: s + steps].transpose(1, 0, 2), W_xT)
        h, c, gates, g, tc = lstm_step(xw[s % steps], h, c, W_hT, b,
                                       out[:, s])
        if want_cache:
            gates[:, 2 * H: 3 * H] = g
            hs[s + 1], cs[s + 1], gates_all[s], tcs[s] = h, c, gates, tc
    if not want_cache:
        return out, None
    return out, (X, hs, cs, gates_all, tcs)


def lstm_layer_backward(W_x: np.ndarray, W_h: np.ndarray, cache: tuple,
                        g_H: np.ndarray) -> tuple:
    """Backward of `lstm_layer_forward` through time, last step first.

    g_H: upstream gradients (B, L, H) on the hidden states. Returns
    (g_X (B, L, D), gW_x, gW_h, gb).
    """
    X, hs, cs, gates_all, tcs = cache
    B, L, H = g_H.shape
    g_X = np.empty(X.shape)
    gW_x = np.zeros_like(W_x)
    gW_h = np.zeros_like(W_h)
    gb = np.zeros(4 * H)
    g_h = g_c = np.zeros((B, H))
    for s in reversed(range(L)):
        gates, tc = gates_all[s], tcs[s]
        i = gates[:, :H]
        f = gates[:, H: 2 * H]
        g = gates[:, 2 * H: 3 * H]
        o = gates[:, 3 * H:]
        g_h = g_H[:, s] + g_h
        d_o = g_h * tc
        g_c_tot = g_c + g_h * o * (1.0 - tc * tc)
        d_f = g_c_tot * cs[s]
        d_i = g_c_tot * g
        d_g = g_c_tot * i
        g_c = g_c_tot * f
        dz = np.concatenate([
            d_i * i * (1.0 - i),
            d_f * f * (1.0 - f),
            d_g * (1.0 - g * g),
            d_o * o * (1.0 - o),
        ], axis=-1)
        gW_x += dz.T @ X[:, s]
        gW_h += dz.T @ hs[s]
        gb += dz.sum(axis=0)
        g_X[:, s] = dz @ W_x
        g_h = dz @ W_h
    return g_X, gW_x, gW_h, gb


# --------------------------------------------------------------------------
# softmax / loss

def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction).

    -inf entries mask their position: they get weight exactly 0. NaN,
    +inf and a row with no finite entry raise FloatingPointError. All
    three show in the row maxima (max propagates NaN), so those are the
    only values scanned.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] == 0:
        raise ValueError("softmax of empty input")
    top = v.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise FloatingPointError(
            "softmax input holds NaN or +inf, or a row with no finite entry")
    e = v - top
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries, with its gradient on pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n


# --------------------------------------------------------------------------
# ADAM

# ADAM's moment decay rates and denominator guard; the learning rate is
# its only training knob
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected ADAM at learning rate lr, with the fixed decay rates
    and guard above. lr is its only argument: a state starts at step 0,
    and `adam_step` creates a parameter's moments on its first update."""

    lr: float = 1e-4
    step_count: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("ADAM lr must be positive")


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> None:
    """One update over every entry of `grads`; params are updated in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape "
                             f"{p.shape} for {name!r}")
        _check_finite(f"gradient {name!r}", g)
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
