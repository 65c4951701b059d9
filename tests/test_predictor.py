"""Sequence predictor: architecture, causality, gradients, training loop."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from canids import model_io, nn, predictor
from canids.nn import mse_loss, softmax
from canids.predictor import (
    PredictorHyper,
    PredictorModel,
    StreamPredictor,
    TrainHistory,
    TrainingDiverged,
    _forward_batch,
    build_model,
    load_model_file,
    loss_and_grads,
    param_shapes,
    parameter_count_note,
    predict_last_batch,
    save_model,
    train,
)
from canids.tracegen import SignalGenSpec, generate_normal
from canids.traces import (
    MessageSchema,
    fit_and_scale,
    split_train_val,
    window_arrays,
)

from oracles import grad_check, persistence_mse

def closed_form_parameter_count(k: int, e: int, h: int) -> int:
    """The parameter count as an explicit sum over layer dimensions."""
    embed = e * k + e
    enc1 = 4 * h * e + 4 * h * h + 4 * h
    stacked = 4 * h * h + 4 * h * h + 4 * h  # enc2, dec1, dec2 alike
    attn = h * h + h
    combine = h * 2 * h + h
    out = k * h + k
    return embed + enc1 + 3 * stacked + attn + combine + out


TINY = PredictorHyper(subsequence_length=4, embed_dim=4, hidden_dim=4,
                      batch_size=8, learning_rate=1e-3, max_epochs=3,
                      patience=2)


class TestArchitecture:
    def test_blocks_match_declared_shapes(self):
        m = build_model(k=2, hyper=TINY, seed=0)
        expected = param_shapes(2, 4, 4)
        assert set(m.params) == set(expected)
        for name, shape in expected.items():
            assert m.params[name].shape == shape
            assert m.params[name].dtype == np.float64

    @pytest.mark.parametrize("k,e,h", [(1, 2, 3), (3, 8, 5), (4, 16, 16)])
    def test_count_matches_closed_form(self, k, e, h):
        hyper = PredictorHyper(subsequence_length=4, embed_dim=e, hidden_dim=h)
        m = build_model(k=k, hyper=hyper, seed=1)
        assert m.parameter_count() == closed_form_parameter_count(k, e, h)

    def test_default_architecture_size(self):
        # summed by hand: embed 512, enc1 49408, enc2/dec1/dec2 33024 each,
        # attn 4160, combine 8256, out 195
        m = build_model(k=3, hyper=PredictorHyper(), seed=0)
        assert m.hyper.embed_dim == 128 and m.hyper.hidden_dim == 64
        total = 512 + 49408 + 3 * 33024 + 4160 + 8256 + 195
        assert total == 161_603
        assert m.parameter_count() == total
        note = parameter_count_note(m)
        assert "161603" in note

    def test_seeded_construction_is_reproducible(self):
        a = build_model(k=2, hyper=TINY, seed=42)
        b = build_model(k=2, hyper=TINY, seed=42)
        c = build_model(k=2, hyper=TINY, seed=43)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n])
                   for n in a.params)

    @pytest.mark.parametrize("hyper, digest", [
        (PredictorHyper(),
         "b8678454530c623d19c63f5ebcc4911ee4c4e811dc25dc350e905ca0214299f3"),
        # the benchmark's small model
        (PredictorHyper(subsequence_length=8, embed_dim=16, hidden_dim=16,
                        batch_size=128, learning_rate=1e-3),
         "2cb929a60b5fcc8bfd237cc11edd272fd94426586643bcdee016636f8931b0bb"),
    ])
    def test_initial_weights_are_pinned(self, hyper, digest):
        # the seeded draws alone, no BLAS: equal on every platform, and a
        # change to the initialization order or rule shows here
        m = build_model(k=3, hyper=hyper, seed=0)
        h = hashlib.sha256()
        for name in param_shapes(3, hyper.embed_dim, hyper.hidden_dim):
            h.update(m.params[name].astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_lstm_forget_biases_initialized_to_one(self):
        m = build_model(k=2, hyper=TINY, seed=0)
        for layer in ("enc1", "enc2", "dec1", "dec2"):
            b = m.params[f"{layer}.b"]
            assert np.array_equal(b[4:8], np.ones(4))
            assert np.array_equal(b[:4], np.zeros(4))
            assert np.array_equal(b[8:], np.zeros(8))
        for name in ("embed.b", "attn.b", "combine.b", "out.b"):
            assert not m.params[name].any()

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            build_model(k=0)

    def test_wrong_block_shape_rejected(self):
        m = build_model(k=2, hyper=TINY, seed=0)
        bad = dict(m.params)
        bad["out.W"] = np.zeros((3, 4))
        with pytest.raises(ValueError, match="out.W"):
            PredictorModel(k=2, hyper=TINY, params=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, bad):
        m = build_model(k=2, hyper=TINY, seed=0)
        params = {name: p.copy() for name, p in m.params.items()}
        params["dec1.W_h"][1, 2] = bad
        with pytest.raises(ValueError, match="dec1.W_h.*non-finite"):
            PredictorModel(k=2, hyper=TINY, params=params)

    def test_missing_block_rejected(self):
        m = build_model(k=2, hyper=TINY, seed=0)
        bad = dict(m.params)
        del bad["attn.b"]
        with pytest.raises(ValueError, match="blocks"):
            PredictorModel(k=2, hyper=TINY, params=bad)


class TestCausality:
    def test_prefix_predictions_ignore_future_rows(self):
        m = build_model(k=2, hyper=PredictorHyper(
            subsequence_length=6, embed_dim=4, hidden_dim=4), seed=7)
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(6, 2))
        w2 = w1.copy()
        w2[3:] += rng.normal(size=(3, 2))  # only rows 3.. differ
        preds, _ = _forward_batch(m.params, np.stack([w1, w2]),
                                  want_cache=False)
        p1, p2 = preds
        assert np.array_equal(p1[:3], p2[:3])
        assert not np.allclose(p1[3:], p2[3:])

    @staticmethod
    def _cache(seed, B=3, L=5, k=2):
        m = build_model(k=k, hyper=PredictorHyper(
            subsequence_length=L, embed_dim=4, hidden_dim=4), seed=seed)
        windows = np.random.default_rng(seed).normal(size=(B, L, k))
        _, cache = _forward_batch(m.params, windows, want_cache=True)
        return cache

    def test_attention_weights_are_a_distribution(self):
        cache = self._cache(seed=1)
        for s in (1, 3, 5):
            alpha = cache["alpha"][:, s - 1, :s]
            assert alpha.shape == (3, s)
            assert (alpha >= 0).all()
            assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            phi = cache["phi"][:, s - 1]
            assert phi.shape == (3, 4)
            assert (np.abs(phi) <= 1.0).all()  # tanh output

    def test_first_step_attends_only_to_itself(self):
        cache = self._cache(seed=2, L=4)
        assert np.array_equal(cache["alpha"][:, 0],
                              np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))

    def test_alpha_is_stacked_and_zero_above_the_diagonal(self):
        cache = self._cache(seed=3, B=2, L=6)
        alpha = cache["alpha"]
        assert alpha.shape == (2, 6, 6)
        upper = np.triu(np.ones((6, 6), dtype=bool), k=1)
        assert (alpha[:, upper] == 0.0).all()
        assert (alpha[:, ~upper] > 0.0).all()

    def test_each_row_is_the_softmax_of_its_prefix_scores(self):
        cache = self._cache(seed=4, B=3, L=7)
        q, H2, alpha = cache["q"], cache["H2"], cache["alpha"]
        for s in range(7):
            scores = np.einsum("bh,bjh->bj", q[:, s], H2[:, : s + 1])
            assert np.allclose(alpha[:, s, : s + 1], softmax(scores),
                               rtol=0, atol=1e-15)

    def test_phi_is_a_tanh_output(self):
        cache = self._cache(seed=5, B=4, L=6)
        assert cache["phi"].shape == (4, 6, 4)
        assert (np.abs(cache["phi"]) <= 1.0).all()


class TestGradients:
    @pytest.mark.parametrize("mode", ["last", "all"])
    def test_full_model_backward_matches_finite_differences(self, mode):
        m = build_model(k=2, hyper=TINY, seed=3)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 4, 2)) * 0.5
        Y = rng.normal(size=(2, 2)) * 0.5

        def fn(params):
            return loss_and_grads(params, X, Y, loss_mode=mode)

        # h=1e-4: gradients in the deep blocks are ~1e-7, so smaller steps
        # put central differences in roundoff territory
        errs = grad_check(fn, {n: p.copy() for n, p in m.params.items()},
                          h=1e-4)
        worst = max(errs.values())
        assert worst < 1e-4, f"worst block error {worst:.2e}: {errs}"


class TestForward:
    def test_last_loss_mode_equals_manual_mse(self):
        m = build_model(k=2, hyper=TINY, seed=4)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 4, 2))
        Y = rng.normal(size=(5, 2))
        loss, _ = loss_and_grads(m.params, X, Y, loss_mode="last")
        manual, _ = mse_loss(predict_last_batch(m, X), Y)
        assert loss == pytest.approx(manual, rel=1e-12)

    def test_batch_size_does_not_change_predictions(self, monkeypatch):
        m = build_model(k=2, hyper=TINY, seed=5)
        X = np.random.default_rng(5).normal(size=(7, 4, 2))
        # blocks of 3, 2 and 2 windows, then one block of 7
        monkeypatch.setattr(nn, "_GATE_ENTRIES", 3 * 4 * TINY.hidden_dim)
        a = predict_last_batch(m, X)
        monkeypatch.setattr(nn, "_GATE_ENTRIES", 1 << 20)
        b = predict_last_batch(m, X)
        # BLAS may sum in a different order for different batch shapes
        assert np.allclose(a, b, rtol=0, atol=1e-14)

    def test_wrong_window_width_rejected(self):
        m = build_model(k=2, hyper=TINY, seed=0)
        with pytest.raises(ValueError):
            predict_last_batch(m, np.zeros((1, 4, 3)))

    @pytest.mark.parametrize("row", [0, 3])
    def test_non_finite_window_raises(self, row):
        m = build_model(k=2, hyper=TINY, seed=0)
        windows = np.zeros((3, 4, 2))
        windows[1, row, 0] = np.nan
        with pytest.raises(FloatingPointError):
            predict_last_batch(m, windows)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _window_prediction(model: PredictorModel, rows) -> np.ndarray:
    return predict_last_batch(model, np.stack(rows)[None])[0]


class TestStreamPredictor:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(k=hs.integers(1, 4), L=hs.integers(1, 8),
           embed=hs.sampled_from([4, 16]), hidden=hs.sampled_from([4, 16]),
           repeats=hs.lists(hs.booleans(), max_size=40))
    def test_equals_the_window_forward(self, k, L, embed, hidden, repeats):
        # True re-pushes the stream's own last row, as the gateway's freeze
        # substitution does; every other push's vector is spoiled after it
        hyper = PredictorHyper(subsequence_length=L, embed_dim=embed,
                               hidden_dim=hidden)
        model = build_model(k, hyper, seed=L)
        rng = np.random.default_rng(k * 100 + L * 10 + len(repeats))
        stream = StreamPredictor(model)
        pushed = []
        for repeat in repeats:
            if repeat and pushed:
                stream.push(stream.last)
                pushed.append(pushed[-1])
            else:
                vec = rng.uniform(-1.0, 2.0, size=k)
                stream.push(vec)
                pushed.append(vec.copy())
                vec[:] = np.nan  # the stream keeps its own copy
            assert np.array_equal(stream.last, pushed[-1])
            assert stream.ready == (len(pushed) >= L)
            if stream.ready:
                assert np.array_equal(
                    _bits(stream.predict()),
                    _bits(_window_prediction(model, pushed[-L:])))

    def test_equals_the_window_forward_at_the_default_size(self):
        model = build_model(3, PredictorHyper(), seed=1)
        L = model.hyper.subsequence_length
        rows = np.random.default_rng(1).uniform(size=(100, 3))
        stream = StreamPredictor(model)
        for t, row in enumerate(rows):
            stream.push(row)
            if t + 1 >= L:
                assert np.array_equal(
                    _bits(stream.predict()),
                    _bits(_window_prediction(model, rows[t + 1 - L: t + 1])))

    def test_predicts_from_rows_oldest_to_newest(self):
        model = build_model(k=1, hyper=TINY, seed=0)
        rows = [np.array([v]) for v in (0.1, 0.4, 0.2, 0.9)]
        stream = StreamPredictor(model)
        for row in rows:
            stream.push(row)
        pred = stream.predict()
        assert np.array_equal(_bits(pred),
                              _bits(_window_prediction(model, rows)))
        assert not np.array_equal(pred,
                                  _window_prediction(model, rows[::-1]))
        # asking again steps nothing and gives the same prediction
        assert np.array_equal(_bits(stream.predict()), _bits(pred))

    def test_rows_older_than_the_window_are_forgotten(self):
        # one stream predicts after every push, one never before the end,
        # one sees only the last L rows: more rows wait unstepped than a
        # window holds, and every stream gives the same bits
        model = build_model(k=2, hyper=TINY, seed=3)
        L = TINY.subsequence_length
        rows = np.random.default_rng(3).uniform(size=(3 * L + 1, 2))
        eager, lazy, fresh = (StreamPredictor(model) for _ in range(3))
        for row in rows:
            eager.push(row)
            lazy.push(row)
            if eager.ready:
                eager.predict()
        for row in rows[-L:]:
            fresh.push(row)
        want = _bits(_window_prediction(model, rows[-L:]))
        for stream in (eager, lazy, fresh):
            assert np.array_equal(_bits(stream.predict()), want)

    def test_prediction_before_L_pushes_rejected(self):
        stream = StreamPredictor(build_model(k=2, hyper=TINY, seed=0))
        with pytest.raises(ValueError, match="no row"):
            stream.last
        for _ in range(TINY.subsequence_length - 1):
            stream.push(np.zeros(2))
        assert not stream.ready
        with pytest.raises(ValueError, match="fewer rows"):
            stream.predict()

    def test_window_length_must_be_positive(self):
        # the stream's window length is the model's, so no stream can be
        # built without a window
        with pytest.raises(ValueError, match="subsequence_length"):
            PredictorHyper(subsequence_length=0)

    def test_row_width_must_match_the_model(self):
        stream = StreamPredictor(build_model(k=2, hyper=TINY, seed=0))
        with pytest.raises(ValueError, match="shape"):
            stream.push(np.zeros(3))

    def test_last_row_is_read_only(self):
        stream = StreamPredictor(build_model(k=2, hyper=TINY, seed=0))
        stream.push(np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            stream.last[0] = 1.0

    @pytest.mark.parametrize("row", [0, 3])
    def test_non_finite_window_raises(self, row):
        stream = StreamPredictor(build_model(k=2, hyper=TINY, seed=0))
        for t in range(TINY.subsequence_length):
            stream.push(np.array([np.nan if t == row else 0.0, 0.0]))
        with pytest.raises(FloatingPointError):
            stream.predict()


def _sine_traces():
    schema = MessageSchema(message_id=0x10, signal_count=1,
                           nominal_period_ms=10.0)
    gen = SignalGenSpec(kind="sine", lo=-1.2, hi=1.2, amplitude=1.0,
                        period_s=0.5)
    trace = generate_normal(schema, [gen], duration=8.0, seed=11)
    scaled, _ = fit_and_scale(trace)
    return split_train_val(scaled, 0.8)


SINE = PredictorHyper(subsequence_length=8, embed_dim=8, hidden_dim=8,
                      batch_size=64, learning_rate=0.01, max_epochs=40,
                      patience=39)


class TestTraining:
    def test_learns_a_sine_better_than_persistence(self):
        tr, va = _sine_traces()
        model = build_model(k=1, hyper=SINE, seed=0)
        trained, hist = train(model, tr, va)
        X_va, Y_va = window_arrays(va, 8)
        floor = persistence_mse(X_va, Y_va)
        best = min(hist.val_loss)
        assert best < 0.5 * floor, (best, floor)
        assert hist.val_loss[hist.best_epoch] == best

    def test_patience_stops_training_and_restores_best(self):
        tr, va = _sine_traces()
        hyper = PredictorHyper(subsequence_length=8, embed_dim=4,
                               hidden_dim=4, batch_size=64,
                               learning_rate=0.05, max_epochs=200, patience=3)
        model = build_model(k=1, hyper=hyper, seed=1)
        trained, hist = train(model, tr, va)
        if hist.stop_reason == "patience":
            assert len(hist.val_loss) < 200
            assert hist.best_epoch <= len(hist.val_loss) - 1 - 3
        # restored weights reproduce the best validation loss
        X_va, Y_va = window_arrays(va, 8)
        d = predict_last_batch(trained, X_va) - Y_va
        reproduced = float(np.mean(d * d))
        assert reproduced == pytest.approx(min(hist.val_loss), rel=1e-9)

    def test_original_model_is_not_mutated(self):
        tr, va = _sine_traces()
        hyper = PredictorHyper(subsequence_length=8, embed_dim=4,
                               hidden_dim=4, batch_size=64,
                               learning_rate=0.01, max_epochs=2, patience=1)
        model = build_model(k=1, hyper=hyper, seed=2)
        before = {n: p.copy() for n, p in model.params.items()}
        trained, _ = train(model, tr, va)
        for name in before:
            assert np.array_equal(model.params[name], before[name])
        assert any(not np.array_equal(trained.params[n], before[n])
                   for n in before)

    @pytest.mark.parametrize("field", ["embed_dim", "hidden_dim"])
    def test_hyper_of_another_architecture_rejected_before_training(
            self, field):
        tr, va = _sine_traces()
        hyper = PredictorHyper(subsequence_length=8, embed_dim=4,
                               hidden_dim=4, batch_size=64,
                               learning_rate=0.01, max_epochs=5, patience=1)
        model = build_model(k=1, hyper=hyper, seed=2)
        other = dataclasses.replace(hyper, **{field: 6})
        with mock.patch.object(predictor, "loss_and_grads") as spy, \
                pytest.raises(ValueError, match="has shape"):
            train(dataclasses.replace(model, hyper=other), tr, va)
        spy.assert_not_called()

    def test_scaled_up_weights_diverge_at_the_first_batch(self):
        tr, va = _sine_traces()
        model = build_model(k=1, hyper=SINE, seed=0)
        huge = PredictorModel(k=1, hyper=SINE, params={
            name: p * 1e300 for name, p in model.params.items()})
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="epoch 0, batch 0") as e:
            train(huge, tr, va)
        assert (e.value.epoch, e.value.batch) == (0, 0)

    def test_non_finite_gradient_with_a_finite_loss_diverges(self):
        # weights x1e300 of a 4-unit model: the first batch's loss is
        # finite, and a gradient overflows
        tr, va = _sine_traces()
        hyper = PredictorHyper(subsequence_length=8, embed_dim=4,
                               hidden_dim=4, batch_size=64,
                               learning_rate=1e-3, max_epochs=3, patience=2)
        model = build_model(k=1, hyper=hyper, seed=0)
        huge = PredictorModel(k=1, hyper=hyper, params={
            name: p * 1e300 for name, p in model.params.items()})
        X, Y = window_arrays(tr, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_and_grads(huge.params, X[:64], Y[:64])
            assert np.isfinite(loss)
            assert not all(np.isfinite(g).all() for g in grads.values())
            with pytest.raises(TrainingDiverged,
                               match="gradient .* epoch 0, batch 0") as e:
                train(huge, tr, va)
        assert (e.value.epoch, e.value.batch) == (0, 0)

    def test_overflowing_validation_loss_diverges_after_the_epoch(self):
        # a target of 1e200 squares past the float64 range while every
        # prediction stays finite; batch -1 names the validation pass
        tr, va = _sine_traces()
        signals = va.signals.copy()
        signals[20, 0] = 1e200
        va = dataclasses.replace(va, signals=signals)
        model = build_model(k=1, hyper=SINE, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="batch -1") as e:
            train(model, tr, va)
        assert (e.value.epoch, e.value.batch) == (0, -1)

    def test_non_finite_validation_prediction_raises(self):
        # validation predicts through predict_last_batch, which refuses a
        # non-finite prediction before any loss is summed
        tr, va = _sine_traces()
        signals = va.signals.copy()
        signals[20, 0] = np.nan
        va = dataclasses.replace(va, signals=signals)
        model = build_model(k=1, hyper=SINE, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError):
            train(model, tr, va)

    def test_inconsistent_history_rejected(self):
        with pytest.raises(ValueError):
            TrainHistory(train_loss=(1.0, 0.5), val_loss=(1.0, 0.5),
                         best_epoch=0, stop_reason="max_epochs")


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = build_model(k=3, hyper=TINY, seed=9)
        path = tmp_path / "m.canids"
        save_model(m, path)
        loaded, meta = load_model_file(path)
        assert loaded.k == 3
        assert loaded.hyper == m.hyper
        for name in m.params:
            assert np.array_equal(loaded.params[name], m.params[name])
        assert meta["parameter_count"] == m.parameter_count()

    def test_extra_meta_rides_along(self, tmp_path):
        m = build_model(k=2, hyper=TINY, seed=0)
        path = tmp_path / "m.canids"
        save_model(m, path, extra_meta={"schema": {"message_id": 16}})
        _, meta = load_model_file(path)
        assert meta["schema"] == {"message_id": 16}

    def test_extra_meta_cannot_shadow_base_keys(self, tmp_path):
        m = build_model(k=2, hyper=TINY, seed=0)
        with pytest.raises(ValueError, match="override"):
            save_model(m, tmp_path / "m.canids", extra_meta={"k": 5})

    def test_file_holding_non_finite_weights_rejected(self, tmp_path):
        path = tmp_path / "m.canids"
        save_model(build_model(k=2, hyper=TINY, seed=0), path)
        meta, blocks = model_io.load_arrays(path, expected_type="predictor")
        blocks["out.b"] = np.array([0.0, np.nan])
        model_io.save_arrays(path, "predictor", meta, blocks)
        with pytest.raises(ValueError, match="out.b"):
            load_model_file(path)
