"""Numeric kernel: layers, loss, optimizer, and the gradient checker.

Every backward pass is cross-checked against central finite differences,
the independent route for derivative claims.
"""

import numpy as np
import pytest

from canids.nn import (
    AdamState,
    LstmCellParams,
    _sigmoid,
    adam_step,
    grad_check,
    init_lstm_cell,
    lstm_cell_backward,
    lstm_cell_forward,
    mse_loss,
    relative_error,
    softmax,
)


class TestLstmCell:
    def test_zero_params_give_zero_states(self):
        p = LstmCellParams(W_x=np.zeros((8, 3)), W_h=np.zeros((8, 2)),
                           b=np.zeros(8))
        h, c, _ = lstm_cell_forward(p, np.array([1.0, -2.0, 0.5]),
                                    np.zeros(2), np.zeros(2))
        assert np.array_equal(h, np.zeros(2))
        assert np.array_equal(c, np.zeros(2))

    def test_scalar_cell_hand_value(self):
        # saturate forget and output gates open, input gate closed:
        # c = c_prev, h = tanh(c_prev)
        b = np.array([-20.0, 20.0, 0.0, 20.0])  # gate order i, f, g, o
        p = LstmCellParams(W_x=np.zeros((4, 1)), W_h=np.zeros((4, 1)), b=b)
        h, c, _ = lstm_cell_forward(p, np.array([0.3]), np.array([0.0]),
                                    np.array([0.5]))
        assert abs(c[0] - 0.5) < 1e-4
        assert abs(h[0] - np.tanh(0.5)) < 1e-4
        assert abs(h[0] - 0.4621) < 1e-3

    def test_forget_bias_initialized_to_one(self):
        rng = np.random.default_rng(0)
        p = init_lstm_cell(rng, hidden_dim=4, input_dim=3)
        assert np.array_equal(p.b[4:8], np.ones(4))
        assert np.array_equal(p.b[:4], np.zeros(4))
        assert np.array_equal(p.b[8:], np.zeros(8))

    def test_rollout_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        H, D, T = 3, 2, 3
        p = init_lstm_cell(rng, H, D)
        # a batch of one: (T, 1, D) inputs, (1, H) states
        xs = rng.normal(size=(T, 1, D))
        target = rng.normal(size=(1, H))

        def fn(params):
            cell = LstmCellParams(W_x=params["W_x"], W_h=params["W_h"],
                                  b=params["b"])
            h = np.zeros((1, H))
            c = np.zeros((1, H))
            caches = []
            for t in range(T):
                h, c, cache = lstm_cell_forward(cell, xs[t], h, c)
                caches.append(cache)
            loss, g_h = mse_loss(h, target)
            g_c = np.zeros((1, H))
            gWx = np.zeros_like(params["W_x"])
            gWh = np.zeros_like(params["W_h"])
            gb = np.zeros_like(params["b"])
            for t in reversed(range(T)):
                _, g_h, g_c, dWx, dWh, db = lstm_cell_backward(
                    cell, caches[t], g_h, g_c)
                gWx += dWx
                gWh += dWh
                gb += db
            return loss, {"W_x": gWx, "W_h": gWh, "b": gb}

        errs = grad_check(fn, {"W_x": p.W_x.copy(), "W_h": p.W_h.copy(),
                               "b": p.b.copy()})
        assert max(errs.values()) < 1e-4

    def test_batched_step_equals_per_row(self):
        rng = np.random.default_rng(3)
        p = init_lstm_cell(rng, 4, 3)
        X = rng.normal(size=(6, 3))
        Hs = rng.normal(size=(6, 4))
        Cs = rng.normal(size=(6, 4))
        hb, cb, _ = lstm_cell_forward(p, X, Hs, Cs)
        for i in range(6):
            h1, c1, _ = lstm_cell_forward(p, X[i], Hs[i], Cs[i])
            assert np.allclose(hb[i], h1, atol=1e-12)
            assert np.allclose(cb[i], c1, atol=1e-12)


def _masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The reference logistic function: a boolean-mask split into the two
    overflow-free forms."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


class TestSigmoid:
    def test_edge_values_bit_identical_to_reference(self):
        mags = np.logspace(-3, np.log10(50.0), 401)
        z = np.concatenate([[0.0, -0.0, 745.0, -745.0, 800.0, -800.0],
                            mags, -mags])
        assert np.array_equal(_bits(_sigmoid(z)), _bits(_masked_sigmoid(z)))

    @pytest.mark.parametrize("shape", [(1, 64), (256, 256)])
    def test_blocks_bit_identical_to_reference(self, shape):
        z = np.random.default_rng(4).normal(scale=6.0, size=shape)
        assert np.array_equal(_bits(_sigmoid(z)), _bits(_masked_sigmoid(z)))

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _sigmoid(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]


def test_cell_gates_bit_identical_to_per_gate_reference():
    # the fused gate pass must reproduce separate sigmoid calls on the
    # i, f and o slices exactly
    rng = np.random.default_rng(6)
    H = 5
    p = init_lstm_cell(rng, H, 3)
    x, h0, c0 = (rng.normal(scale=3.0, size=(7, d)) for d in (3, H, H))
    h, c, _ = lstm_cell_forward(p, x, h0, c0)
    z = x @ p.W_x.T + h0 @ p.W_h.T + p.b
    i, f, o = (_masked_sigmoid(z[:, a * H: (a + 1) * H]) for a in (0, 1, 3))
    c_ref = f * c0 + i * np.tanh(z[:, 2 * H: 3 * H])
    h_ref = o * np.tanh(c_ref)
    assert np.array_equal(_bits(c), _bits(c_ref))
    assert np.array_equal(_bits(h), _bits(h_ref))


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
