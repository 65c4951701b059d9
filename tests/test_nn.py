"""Numeric kernel: layers, loss, optimizer, and the gradient checker.

Every backward pass is cross-checked against central finite differences,
the independent route for derivative claims.
"""

import numpy as np
import pytest

from canids import nn
from canids.nn import (
    AdamState,
    _sigmoid,
    adam_step,
    init_lstm_cell,
    lstm_layer_backward,
    lstm_layer_forward,
    mse_loss,
    softmax,
)

from oracles import (
    grad_check,
    lstm_cell_backward,
    lstm_cell_forward,
    masked_sigmoid,
    relative_error,
)


class TestLstmCell:
    def test_zero_params_give_zero_states(self):
        X = np.array([[[1.0, -2.0, 0.5], [0.3, 0.0, -1.0]]])
        Hs, cache = lstm_layer_forward(np.zeros((8, 3)), np.zeros((8, 2)),
                                       np.zeros(8), X, want_cache=True)
        assert np.array_equal(Hs, np.zeros((1, 2, 2)))
        _, _, cs, _, _ = cache
        assert np.array_equal(cs, np.zeros((3, 1, 2)))

    def test_scalar_cell_hand_value(self):
        # step 1 (x = 1): input gate open, candidate tanh(atanh(0.5)), so
        # c = 0.5; step 2 (x = 0): input gate closed, forget and output
        # gates open, so c stays 0.5 and h = tanh(0.5)
        W_x = np.array([[40.0], [0.0], [0.0], [0.0]])  # gate order i, f, g, o
        b = np.array([-20.0, 20.0, np.arctanh(0.5), 20.0])
        X = np.array([[[1.0], [0.0]]])
        Hs, (_, _, cs, _, _) = lstm_layer_forward(W_x, np.zeros((4, 1)), b,
                                                  X, want_cache=True)
        assert abs(cs[1, 0, 0] - 0.5) < 1e-4
        assert abs(cs[2, 0, 0] - 0.5) < 1e-4
        assert abs(Hs[0, 1, 0] - np.tanh(0.5)) < 1e-4
        assert abs(Hs[0, 1, 0] - 0.4621) < 1e-3

    def test_forget_bias_initialized_to_one(self):
        rng = np.random.default_rng(0)
        _, _, b = init_lstm_cell(rng, hidden_dim=4, input_dim=3)
        assert np.array_equal(b[4:8], np.ones(4))
        assert np.array_equal(b[:4], np.zeros(4))
        assert np.array_equal(b[8:], np.zeros(8))

    def test_rollout_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        H, D, T = 3, 2, 3
        W_x, W_h, b = init_lstm_cell(rng, H, D)
        # a batch of one (1, T, D); the loss reads the last hidden state
        xs = rng.normal(size=(1, T, D))
        target = rng.normal(size=(1, H))

        def fn(params):
            Hs, cache = lstm_layer_forward(params["W_x"], params["W_h"],
                                           params["b"], params["X"], True)
            loss, g_last = mse_loss(Hs[:, -1], target)
            g_H = np.zeros_like(Hs)
            g_H[:, -1] = g_last
            g_X, gWx, gWh, gb = lstm_layer_backward(params["W_x"],
                                                    params["W_h"], cache, g_H)
            return loss, {"W_x": gWx, "W_h": gWh, "b": gb, "X": g_X}

        errs = grad_check(fn, {"W_x": W_x, "W_h": W_h, "b": b, "X": xs})
        assert max(errs.values()) < 1e-4

    def test_batched_step_equals_per_row(self):
        # a batch of windows gives each window's own run of the layer
        rng = np.random.default_rng(3)
        W_x, W_h, b = init_lstm_cell(rng, 4, 3)
        X = rng.normal(size=(6, 5, 3))
        Hb, _ = lstm_layer_forward(W_x, W_h, b, X, want_cache=False)
        for i in range(6):
            H1, _ = lstm_layer_forward(W_x, W_h, b, X[i: i + 1], False)
            # BLAS may sum in a different order for different batch shapes
            assert np.allclose(Hb[i], H1[0], rtol=0, atol=1e-12)


def _oracle_rollout(W_x, W_h, b, X, g_H):
    """A step-by-step run of the per-step cell oracle: hidden states, then
    (g_X, gW_x, gW_h, gb) with the weight gradients accumulated over
    steps last to first."""
    B, L, _ = X.shape
    H = W_h.shape[1]
    h = c = np.zeros((B, H))
    Hs = np.empty((B, L, H))
    caches = []
    for s in range(L):
        h, c, cache = lstm_cell_forward(W_x, W_h, b, X[:, s], h, c)
        Hs[:, s] = h
        caches.append(cache)
    g_X = np.empty(X.shape)
    gW_x, gW_h, gb = np.zeros_like(W_x), np.zeros_like(W_h), np.zeros_like(b)
    g_h = g_c = np.zeros((B, H))
    for s in reversed(range(L)):
        g_X[:, s], g_h, g_c, dWx, dWh, db = lstm_cell_backward(
            W_x, W_h, caches[s], g_H[:, s] + g_h, g_c)
        gW_x += dWx
        gW_h += dWh
        gb += db
    return Hs, (g_X, gW_x, gW_h, gb)


@pytest.mark.parametrize("B, L, D, H", [(1, 8, 3, 16), (7, 5, 16, 4),
                                        (256, 4, 6, 8), (3, 1, 2, 2)])
def test_layer_bit_identical_to_step_by_step_cell_oracle(B, L, D, H):
    rng = np.random.default_rng(B * 100 + L)
    W_x, W_h, b = init_lstm_cell(rng, H, D)
    b += rng.normal(size=b.shape)
    X = rng.normal(scale=2.0, size=(B, L, D))
    g_H = rng.normal(size=(B, L, H))
    ref_H, ref_grads = _oracle_rollout(W_x, W_h, b, X, g_H)

    Hs_plain, _ = lstm_layer_forward(W_x, W_h, b, X, want_cache=False)
    Hs, cache = lstm_layer_forward(W_x, W_h, b, X, want_cache=True)
    assert np.array_equal(Hs_plain, ref_H)
    assert np.array_equal(Hs, ref_H)
    grads = lstm_layer_backward(W_x, W_h, cache, g_H)
    for name, got, want in zip(("g_X", "gW_x", "gW_h", "gb"), grads,
                               ref_grads):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("B", [1, 2, 3, 7, 57, 256])
@pytest.mark.parametrize("steps", [3, 8])
def test_steps_per_input_product_leave_bits_unchanged(monkeypatch, B, steps):
    # a budget of B*4H*steps gate entries puts `steps` input terms in one
    # stacked product (3 leaves a short last call at L=8); one step per
    # call is the reference
    L, D, H = 8, 16, 16
    rng = np.random.default_rng(B * 10 + steps)
    W_x, W_h, b = init_lstm_cell(rng, H, D)
    b += rng.normal(size=b.shape)
    X = rng.normal(scale=2.0, size=(B, L, D))
    monkeypatch.setattr(nn, "_GATE_ENTRIES", 1)
    ref_H, ref_cache = lstm_layer_forward(W_x, W_h, b, X, want_cache=True)
    oracle_H, _ = _oracle_rollout(W_x, W_h, b, X, np.zeros((B, L, H)))
    assert np.array_equal(_bits(ref_H), _bits(oracle_H))
    monkeypatch.setattr(nn, "_GATE_ENTRIES", B * 4 * H * steps)
    Hs_plain, _ = lstm_layer_forward(W_x, W_h, b, X, want_cache=False)
    Hs, cache = lstm_layer_forward(W_x, W_h, b, X, want_cache=True)
    assert np.array_equal(_bits(Hs_plain), _bits(ref_H))
    assert np.array_equal(_bits(Hs), _bits(ref_H))
    for got, want in zip(cache, ref_cache):
        assert np.array_equal(_bits(got), _bits(want))


class TestSigmoid:
    def test_edge_values_bit_identical_to_reference(self):
        mags = np.logspace(-3, np.log10(50.0), 401)
        z = np.concatenate([[0.0, -0.0, 745.0, -745.0, 800.0, -800.0],
                            mags, -mags])
        assert np.array_equal(_bits(_sigmoid(z)), _bits(masked_sigmoid(z)))

    @pytest.mark.parametrize("shape", [(1, 64), (256, 256)])
    def test_blocks_bit_identical_to_reference(self, shape):
        z = np.random.default_rng(4).normal(scale=6.0, size=shape)
        assert np.array_equal(_bits(_sigmoid(z)), _bits(masked_sigmoid(z)))

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _sigmoid(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]


def test_cell_gates_bit_identical_to_per_gate_reference():
    # the fused gate pass must reproduce separate sigmoid calls on the
    # i, f and o slices exactly, at every step of a layer
    rng = np.random.default_rng(6)
    H, L = 5, 3
    W_x, W_h, b = init_lstm_cell(rng, H, 3)
    X = rng.normal(scale=3.0, size=(7, L, 3))
    Hs, (_, _, cs, _, _) = lstm_layer_forward(W_x, W_h, b, X, True)
    h = c = np.zeros((7, H))
    for s in range(L):
        z = X[:, s] @ W_x.T + h @ W_h.T + b
        i, f, o = (masked_sigmoid(z[:, a * H: (a + 1) * H]) for a in (0, 1, 3))
        c = f * c + i * np.tanh(z[:, 2 * H: 3 * H])
        h = o * np.tanh(c)
        assert np.array_equal(_bits(cs[s + 1]), _bits(c))
        assert np.array_equal(_bits(Hs[:, s]), _bits(h))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 4.0])
        assert np.allclose(softmax(v), softmax(v + 117.5), atol=1e-12)

    def test_large_values_do_not_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(5, 7)) * 10
        out = softmax(v, axis=-1)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_minus_inf_entries_get_weight_exactly_zero(self):
        v = np.array([[0.3, -np.inf, 1.1, -np.inf],
                      [2.0, 0.5, -np.inf, -np.inf]])
        out = softmax(v, axis=-1)
        assert (out[np.isneginf(v)] == 0.0).all()
        assert np.allclose(out[0, [0, 2]], softmax(v[0, [0, 2]]),
                           rtol=0, atol=1e-15)
        assert np.allclose(out[1, :2], softmax(v[1, :2]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_raises(self, bad):
        v = np.array([[0.0, 1.0, -np.inf], [0.5, bad, 0.0]])
        with pytest.raises(FloatingPointError):
            softmax(v, axis=-1)

    def test_row_without_a_finite_entry_raises(self):
        v = np.array([[0.0, -np.inf], [-np.inf, -np.inf]])
        with pytest.raises(FloatingPointError, match="no finite entry"):
            softmax(v, axis=-1)


class TestMseLoss:
    def test_zero_at_identity(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_hand_example(self):
        loss, grad = mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(1.0)
        assert np.allclose(grad, [1.0, 1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        target = rng.normal(size=6)

        def fn(params):
            loss, grad = mse_loss(params["p"], target)
            return loss, {"p": grad}

        errs = grad_check(fn, {"p": rng.normal(size=6)})
        assert errs["p"] < 1e-8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(2), np.zeros(3))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        st = AdamState(lr=0.1)
        adam_step(st, params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert st.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes the first update lr * g/(|g| + eps-ish)
        params = {"w": np.array([0.0])}
        st = AdamState(lr=0.01)
        adam_step(st, params, {"w": np.array([3.7])})
        assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_descends_a_quadratic(self):
        params = {"w": np.array([5.0])}
        st = AdamState(lr=0.1)
        for _ in range(500):
            adam_step(st, params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-2

    def test_nonfinite_gradient_rejected(self):
        st = AdamState(lr=0.1)
        with pytest.raises(FloatingPointError):
            adam_step(st, {"w": np.zeros(1)}, {"w": np.array([np.nan])})

    def test_shape_mismatch_rejected(self):
        st = AdamState(lr=0.1)
        with pytest.raises(ValueError):
            adam_step(st, {"w": np.zeros(2)}, {"w": np.zeros(3)})


class TestGradCheck:
    def test_detects_a_corrupted_backward(self):
        # analytic gradient deliberately wrong by 10%
        def fn(params):
            x = params["x"]
            return float((x * x).sum()), {"x": 2.2 * x}

        errs = grad_check(fn, {"x": np.array([1.0, -2.0])})
        assert errs["x"] > 0.05

    def test_accepts_a_correct_backward(self):
        def fn(params):
            x = params["x"]
            return float((x ** 3).sum()), {"x": 3.0 * x ** 2}

        errs = grad_check(fn, {"x": np.array([0.7, -1.3, 2.1])})
        assert errs["x"] < 1e-8

    def test_rejects_nondeterministic_functions(self):
        state = {"calls": 0}

        def fn(params):
            state["calls"] += 1
            return float(state["calls"]), {"x": np.zeros(1)}

        with pytest.raises(RuntimeError, match="deterministic"):
            grad_check(fn, {"x": np.zeros(1)})

    def test_restores_parameters_exactly(self):
        x = np.array([0.1, 0.2, 0.3])
        orig = x.copy()

        def fn(params):
            return float(params["x"].sum()), {"x": np.ones(3)}

        grad_check(fn, {"x": x})
        assert np.array_equal(x, orig)


def test_relative_error_guards_tiny_denominators():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) < 1e-3
    assert relative_error(2.0, 1.0) == pytest.approx(0.5)
