"""Dense numerical kernel for the sequence predictor.

Plain numpy, float64 everywhere: the gradient checks that gate every
backward pass here run at 1e-4 relative tolerance, which single precision
cannot sustain. Layers come in forward/backward pairs with explicit caches
instead of an autodiff graph; parameters live in flat name->array dicts so
the optimizer and the checker can treat them uniformly.

Inputs are batches (B, d) whose rows are independent passes; the forward
step also takes a single vector (d,).

Finiteness is checked at the boundaries, not per step: the predictor
rejects non-finite weights once, when a model is built, trained or loaded,
and checks its predictions once per forward pass. The LSTM cell itself
checks only shapes. `softmax` and `adam_step` check their own inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite values in {name}")


# --------------------------------------------------------------------------
# initialization policy

def init_linear(rng: np.random.Generator, d_out: int, d_in: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Weights uniform in +-1/sqrt(fan_in), bias zero."""
    bound = 1.0 / np.sqrt(d_in)
    W = rng.uniform(-bound, bound, size=(d_out, d_in))
    return W, np.zeros(d_out)


# --------------------------------------------------------------------------
# LSTM cell

def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both written with e = e^-|z| <= 1."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LstmCellParams:
    """One LSTM cell: gate rows stacked [input; forget; candidate; output].

    W_x: (4H, D) input-to-gate, W_h: (4H, H) hidden-to-gate, b: (4H,).
    Only shapes are checked here; the owner of the weights checks that they
    are finite (see `predictor.PredictorModel`).
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.W_x.ndim != 2 or self.W_h.ndim != 2 or self.b.ndim != 1:
            raise ValueError("W_x, W_h must be matrices and b a vector")
        four_h = self.W_x.shape[0]
        if four_h % 4 != 0:
            raise ValueError("gate dimension must be a multiple of 4")
        h = four_h // 4
        if self.W_h.shape != (four_h, h) or self.b.shape != (four_h,):
            raise ValueError(
                f"inconsistent LSTM shapes: W_x {self.W_x.shape}, "
                f"W_h {self.W_h.shape}, b {self.b.shape}")

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]


def init_lstm_cell(rng: np.random.Generator, hidden_dim: int, input_dim: int
                   ) -> LstmCellParams:
    """Uniform +-1/sqrt(fan_in) weights; forget-gate bias +1, others 0."""
    W_x, _ = init_linear(rng, 4 * hidden_dim, input_dim)
    W_h, _ = init_linear(rng, 4 * hidden_dim, hidden_dim)
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim: 2 * hidden_dim] = 1.0
    return LstmCellParams(W_x=W_x, W_h=W_h, b=b)


def lstm_cell_forward(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray,
                      c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One step: i,f,o sigmoid gates, g tanh candidate,
    c = f*c_prev + i*g, h = o*tanh(c). Returns (h, c, cache)."""
    H = p.hidden_dim
    if x.shape[-1] != p.input_dim:
        raise ValueError(f"input width {x.shape[-1]}, cell expects {p.input_dim}")
    if h_prev.shape[-1] != H or c_prev.shape[-1] != H:
        raise ValueError("state width does not match hidden_dim")
    z = x @ p.W_x.T + h_prev @ p.W_h.T + p.b
    # one sigmoid pass over all four gate blocks; the candidate block's
    # sigmoid is discarded, which costs less than three separate passes
    gates = _sigmoid(z)
    i = gates[..., 0:H]
    f = gates[..., H: 2 * H]
    g = np.tanh(z[..., 2 * H: 3 * H])
    o = gates[..., 3 * H: 4 * H]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def lstm_cell_backward(p: LstmCellParams, cache: tuple, g_h: np.ndarray,
                       g_c: np.ndarray) -> tuple:
    """Backward of one batched (B, d) step.

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
    g_x = dz @ p.W_x
    g_h_prev = dz @ p.W_h
    return g_x, g_h_prev, g_c_prev, gW_x, gW_h, gb


# --------------------------------------------------------------------------
# softmax / loss

def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along axis (max subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] == 0:
        raise ValueError("softmax of empty input")
    _check_finite("softmax input", v)
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


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

@dataclass
class AdamState:
    """Bias-corrected ADAM; moment slots created lazily per parameter name."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lr <= 0 or not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("bad ADAM hyperparameters")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One update over every entry of `grads`; params are updated in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape "
                             f"{p.shape} for {name!r}")
        _check_finite(f"gradient {name!r}", g)
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


# --------------------------------------------------------------------------
# gradient checking

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
