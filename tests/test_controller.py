"""Online pipeline: rate checking, history buffer, per-frame dispositions."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from canids import controller
from canids.controller import (
    DISPOSITIONS,
    FrameDisposition,
    HistoryBuffer,
    OnlineConfig,
    RateCheckerState,
    dispositions_csv,
    rate_check,
    rate_flags,
    run_online,
)
from canids.detector import VARIANTS, OcsvmModel, StaticThreshold, fit_ocsvm
from canids.pipeline import detect_with
from canids.predictor import PredictorHyper, build_model, predict_last_batch
from canids.traces import MessageSchema, ScalingParams, Trace

from oracles import run_online_loop

HYPER = PredictorHyper(subsequence_length=4, embed_dim=4, hidden_dim=4,
                       batch_size=8, learning_rate=1e-3, max_epochs=3,
                       patience=2)


def _unit_scaling(k: int) -> ScalingParams:
    return ScalingParams(mins=np.zeros(k), maxs=np.ones(k))


class TestRateCheck:
    def test_first_frame_is_ok(self):
        st = RateCheckerState(expected_period_ms=15.0)
        assert rate_check(st, 0.0) == "ok"

    def test_classification_against_nominal_period(self):
        # P = 15 ms, tolerance 20%: accept gaps in [12, 18] ms
        st = RateCheckerState(expected_period_ms=15.0)
        assert rate_check(st, 0.000) == "ok"
        assert rate_check(st, 0.0015) == "too_fast"  # 1.5 ms gap
        assert rate_check(st, 0.0165) == "ok"        # 15 ms gap
        assert rate_check(st, 0.0765) == "too_slow"  # 60 ms gap
        assert rate_check(st, 0.0895) == "ok"        # 13 ms gap

    def test_gap_measured_from_previous_frame_not_previous_accepted(self):
        # during a flood every frame updates the anchor, so a frame one
        # nominal period after the last flood frame looks legitimate
        st = RateCheckerState(expected_period_ms=15.0)
        rate_check(st, 0.0)
        for i in range(1, 6):
            assert rate_check(st, i * 0.0015) == "too_fast"
        assert rate_check(st, 5 * 0.0015 + 0.015) == "ok"

    def test_decreasing_timestamp_is_too_fast_and_anchor_stays(self):
        st = RateCheckerState(expected_period_ms=15.0)
        assert rate_check(st, 1.0) == "ok"
        assert rate_check(st, 0.5) == "too_fast"
        assert st.last_timestamp == 1.0
        # gaps are still measured from the latest time seen
        assert rate_check(st, 1.0 - 0.015) == "too_fast"
        assert rate_check(st, 1.015) == "ok"
        assert st.last_timestamp == 1.015

    def test_nan_stamp_is_too_fast_and_anchor_stays(self):
        # a NaN gap fails every comparison; the frame 0.1 ms after the
        # last finite one must still read as a flood frame
        st = RateCheckerState(expected_period_ms=15.0)
        verdicts = [rate_check(st, t) for t in (0.0, 0.015, np.nan, 0.0151)]
        assert verdicts == ["ok", "ok", "too_fast", "too_fast"]
        assert st.last_timestamp == 0.0151

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_stamp_is_too_fast_and_anchor_stays(self, bad):
        # an infinite anchor would make every later frame too_fast
        st = RateCheckerState(expected_period_ms=15.0)
        verdicts = [rate_check(st, t) for t in (0.0, 0.015, bad, 0.030)]
        assert verdicts == ["ok", "ok", "too_fast", "ok"]
        assert st.last_timestamp == 0.030

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_first_stamp_leaves_anchor_unset(self, bad):
        st = RateCheckerState(expected_period_ms=15.0)
        assert rate_check(st, bad) == "too_fast"
        assert st.last_timestamp is None
        assert rate_check(st, 5.0) == "ok"
        assert st.last_timestamp == 5.0

    def test_backward_jump_is_a_rate_drop_in_the_gateway(self):
        k = 2
        model = build_model(k=k, hyper=HYPER, seed=0)
        # frame 6 is stamped four periods back; the rest keep the period
        # counted from frame 5
        stream = [(t if i < 6 else t - 0.015, x)
                  for i, (t, x) in enumerate(_clean_stream(10))]
        stream[6] = (stream[2][0], stream[6][1])
        out = run_online(stream, model, StaticThreshold(threshold=100.0),
                         "ST", _unit_scaling(k), 15.0)
        assert [d.index for d in out] == list(range(10))
        assert out[6].disposition == "DroppedRateViolation"
        assert out[6].rate_flag == "too_fast" and out[6].score is None
        assert all(d.disposition == "Delivered" for d in out if d.index != 6)
        assert out[7].rate_flag == "ok"  # gap measured from frame 5

    def test_state_validation(self):
        with pytest.raises(ValueError):
            RateCheckerState(expected_period_ms=0.0)
        with pytest.raises(ValueError):
            RateCheckerState(expected_period_ms=15.0, tolerance_fraction=1.2)


class TestRateFlags:
    def test_matches_sequential_checker(self):
        rng = np.random.default_rng(0)
        gaps = rng.choice([0.001, 0.013, 0.015, 0.025], size=200)
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        fast, slow = rate_flags(ts, expected_period_ms=15.0)
        st = RateCheckerState(expected_period_ms=15.0)
        for i, t in enumerate(ts):
            verdict = rate_check(st, t)
            assert fast[i] == (verdict == "too_fast")
            assert slow[i] == (verdict == "too_slow")

    def test_clean_exact_period_stream_has_zero_violations(self):
        ts = np.arange(10_000) * 0.015
        fast, slow = rate_flags(ts, expected_period_ms=15.0,
                                tolerance_fraction=0.2)
        assert fast.sum() == 0
        assert slow.sum() == 0

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(ValueError):
            rate_flags(np.array([0.0, 0.2, 0.1]), expected_period_ms=15.0)

    @pytest.mark.parametrize("period", [np.nan, np.inf, 0.0, -15.0])
    def test_period_must_be_finite_and_positive(self, period):
        # a NaN period reads every gap ok, so a 0.1 ms flood would pass; a
        # negative one flags every gap too slow
        ts = np.arange(5) * 1e-4
        match = "expected_period_ms must be finite and positive"
        with pytest.raises(ValueError, match=match):
            RateCheckerState(expected_period_ms=period)
        with pytest.raises(ValueError, match=match):
            rate_flags(ts, expected_period_ms=period)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_rejected(self, bad):
        # a NaN gap compares False both ways, so the 0.1 ms flood gap
        # after it would go unflagged
        ts = np.array([0.0, 0.015, bad, 0.0151, 0.03])
        with pytest.raises(ValueError, match="timestamp 2 is not finite"):
            rate_flags(ts, expected_period_ms=15.0)


class TestHistoryBuffer:
    def test_window_orders_oldest_to_newest(self):
        buf = HistoryBuffer(3)
        for v in ([1.0], [2.0], [3.0]):
            buf.push(np.array(v))
        assert np.array_equal(buf.window(), [[1.0], [2.0], [3.0]])

    def test_eviction_keeps_the_most_recent(self):
        buf = HistoryBuffer(2)
        for v in ([1.0], [2.0], [3.0]):
            buf.push(np.array(v))
        assert np.array_equal(buf.window(), [[2.0], [3.0]])

    def test_window_before_full_rejected(self):
        buf = HistoryBuffer(2)
        buf.push(np.array([1.0]))
        assert not buf.full
        with pytest.raises(ValueError, match="full"):
            buf.window()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            HistoryBuffer(0)

    def test_vector_shape_must_not_change(self):
        buf = HistoryBuffer(2)
        buf.push(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            buf.push(np.zeros(2))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(capacity=hs.integers(1, 6), k=hs.integers(1, 3),
           repeats=hs.lists(hs.booleans(), max_size=40))
    def test_window_is_the_last_pushes(self, capacity, k, repeats):
        # True pushes the window's newest row back in, as the freeze
        # substitution does, through a view into the buffer itself
        rng = np.random.default_rng(capacity * 100 + k * 10 + len(repeats))
        buf = HistoryBuffer(capacity)
        pushed = []
        for repeat in repeats:
            if repeat and buf.full:
                vec = buf.window()[-1]
                buf.push(vec)
                pushed.append(pushed[-1])
            else:
                vec = rng.normal(size=k)
                buf.push(vec)
                pushed.append(vec.copy())
                vec[:] = np.nan  # the buffer keeps its own copy
            assert buf.full == (len(pushed) >= capacity)
            if buf.full:
                window = buf.window()
                assert np.array_equal(window, np.stack(pushed[-capacity:]))
                with pytest.raises(ValueError, match="read-only"):
                    window[0, 0] = 0.0


def _clean_stream(n: int, k: int = 2, period: float = 0.015):
    rng = np.random.default_rng(7)
    for i in range(n):
        yield i * period, 0.5 + 0.1 * rng.standard_normal(k)


class TestRunOnline:
    def test_clean_stream_is_fully_delivered(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=100.0)  # nothing can exceed this
        out = run_online(_clean_stream(40), model, det, "ST",
                         _unit_scaling(2), expected_period_ms=15.0)
        assert len(out) == 40
        assert all(d.disposition == "Delivered" for d in out)
        # warm-up: first L frames are delivered unscored
        L = HYPER.subsequence_length
        assert all(d.warmup and d.score is None for d in out[:L])
        assert all((not d.warmup) and d.score is not None for d in out[L:])
        assert all(d.score >= 0 for d in out[L:])

    def test_every_frame_gets_exactly_one_disposition(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=1e-9)
        out = run_online(_clean_stream(25), model, det, "ST",
                         _unit_scaling(2), expected_period_ms=15.0)
        assert [d.index for d in out] == list(range(25))

    def test_flood_frames_are_dropped_before_the_model(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=100.0)
        ts = [0.000, 0.015, 0.030]
        ts += [0.0315 + i * 0.0015 for i in range(8)]  # 10x flood burst
        ts += [ts[-1] + 0.015, ts[-1] + 0.030]
        stream = [(t, np.array([0.5, 0.5])) for t in ts]
        out = run_online(stream, model, det, "ST", _unit_scaling(2),
                         expected_period_ms=15.0)
        flood = out[3:11]
        assert all(d.disposition == "DroppedRateViolation" for d in flood)
        assert all(d.score is None for d in flood)
        # flagged on the very first flood frame: within the 3-frame bound
        assert out[3].rate_flag == "too_fast"
        # the stream recovers afterwards
        assert out[-1].disposition == "Delivered"

    def test_anomalous_frames_are_dropped_with_negative_scores(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=1e-9)  # everything anomalous
        out = run_online(_clean_stream(20), model, det, "ST",
                         _unit_scaling(2), expected_period_ms=15.0)
        L = HYPER.subsequence_length
        post = out[L:]
        assert all(d.disposition == "DroppedAnomalous" for d in post)
        assert all(d.score < 0 for d in post)

    @pytest.mark.parametrize("substitution", ["prediction", "freeze"])
    def test_substitution_modes_run(self, substitution):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=1e-9)
        out = run_online(_clean_stream(15), model, det, "ST",
                         _unit_scaling(2), expected_period_ms=15.0,
                         config=OnlineConfig(substitution=substitution))
        assert len(out) == 15

    @pytest.mark.parametrize("substitution", ["prediction", "freeze"])
    def test_predictor_runs_once_per_frame_after_warmup(self, substitution):
        # k=2, L=4; a flood frame in warm-up (3) and after it (6), a NaN
        # payload after it (7), and a threshold that drops some frames
        stream = list(_clean_stream(14))
        stream[3] = (0.0315, stream[3][1])
        stream[4] = (0.045, stream[4][1])
        stream[6] = (stream[5][0] + 0.0015, stream[6][1])
        stream[7] = (stream[7][0], np.array([np.nan, 0.5]))
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=0.5)
        with mock.patch.object(controller, "predict_last_batch",
                               wraps=predict_last_batch) as spy:
            out = run_online(stream, model, det, "ST", _unit_scaling(2),
                             15.0, OnlineConfig(substitution=substitution))
        predicted = [d for d in out if not d.warmup
                     and d.disposition != "DroppedRateViolation"]
        assert [d.index for d in out if d.rate_flag == "too_fast"] == [3, 6]
        assert out[7].disposition == "DroppedAnomalous"
        assert out[7].score is None
        assert {d.disposition for d in predicted} == {"Delivered",
                                                      "DroppedAnomalous"}
        assert spy.call_count == len(predicted) == 14 - 4 - 2
        assert all(c.args[1].shape == (1, 4, 2) for c in spy.call_args_list)

    def test_ocsvm_detector_with_diff_variant(self):
        rng = np.random.default_rng(1)
        det = fit_ocsvm(rng.normal(size=(30, 2)) * 0.01, nu=0.2)
        model = build_model(k=2, hyper=HYPER, seed=0)
        out = run_online(_clean_stream(20), model, det, "Diff",
                         _unit_scaling(2), expected_period_ms=15.0)
        assert len(out) == 20
        scored = [d for d in out if d.score is not None]
        assert scored, "expected at least one scored frame"

    def test_variant_detector_pairing_enforced(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        st = StaticThreshold(threshold=1.0)
        svm = fit_ocsvm(np.random.default_rng(2).normal(size=(10, 2)), nu=0.3)
        with pytest.raises(ValueError, match="ST"):
            run_online([], model, st, "Diff", _unit_scaling(2), 15.0)
        with pytest.raises(ValueError, match="StaticThreshold"):
            run_online([], model, svm, "ST", _unit_scaling(2), 15.0)
        # Sum needs a 1-D detector, not a k-D one
        with pytest.raises(ValueError, match="dimension"):
            run_online([], model, svm, "Sum", _unit_scaling(2), 15.0)

    def test_frame_width_must_match_model(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=1.0)
        stream = [(0.0, np.array([0.5, 0.5, 0.5]))]
        with pytest.raises(ValueError, match="signals"):
            run_online(stream, model, det, "ST", _unit_scaling(3), 15.0)

    def test_scaling_width_must_match_model(self):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=1.0)
        with pytest.raises(ValueError, match="scaling"):
            run_online([], model, det, "ST", _unit_scaling(3), 15.0)

    def test_online_config_validation(self):
        with pytest.raises(ValueError, match="substitution"):
            OnlineConfig(substitution="interpolate")

    def test_unknown_disposition_rejected(self):
        with pytest.raises(ValueError, match="disposition"):
            FrameDisposition(index=0, timestamp=0.0, disposition="Quarantine",
                             score=None, rate_flag="ok", warmup=False)


def _run_recording(stream, *args, **kwargs):
    """run_online with every vector pushed into its history buffer
    recorded; returns (dispositions, pushed vectors)."""
    pushed: list[np.ndarray] = []

    class RecordingBuffer(HistoryBuffer):
        def push(self, vec: np.ndarray) -> None:
            pushed.append(np.array(vec, dtype=np.float64))
            super().push(vec)

    with mock.patch.object(controller, "HistoryBuffer", RecordingBuffer):
        out = run_online(stream, *args, **kwargs)
    return out, pushed


class TestNonFinitePayloads:
    # k=2, L=4: NaN at frame 1 (warm-up) and at frame 6 (scored stream)
    def _stream(self):
        stream = list(_clean_stream(10))
        stream[1] = (stream[1][0], np.array([np.nan, 0.5]))
        stream[6] = (stream[6][0], np.array([0.5, np.nan]))
        return stream

    @pytest.mark.parametrize("substitution", ["prediction", "freeze"])
    def test_nan_frames_are_dropped_and_never_buffered(self, substitution):
        model = build_model(k=2, hyper=HYPER, seed=0)
        det = StaticThreshold(threshold=100.0)  # flags no finite frame
        stream = self._stream()
        out, pushed = _run_recording(
            stream, model, det, "ST", _unit_scaling(2), 15.0,
            config=OnlineConfig(substitution=substitution))
        kinds = [d.disposition for d in out]
        assert kinds == ["Delivered", "DroppedAnomalous"] + ["Delivered"] * 4 \
            + ["DroppedAnomalous"] + ["Delivered"] * 3
        assert [d.warmup for d in out] == [True] * 5 + [False] * 5
        assert out[1].score is None and out[6].score is None
        assert all(d.score is not None and np.isfinite(d.score)
                   for d in out[5:] if d.index != 6)
        # warm-up skips frame 1 entirely; frame 6's slot holds the substitute
        assert len(pushed) == 9
        assert all(np.isfinite(v).all() for v in pushed)
        window = np.stack([stream[i][1] for i in (2, 3, 4, 5)])
        if substitution == "prediction":
            expected = predict_last_batch(model, window[None])[0]
        else:
            expected = window[-1]
        assert np.array_equal(pushed[5], expected)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(k=hs.integers(1, 3), L=hs.integers(1, 5),
           frames=hs.lists(hs.tuples(
               hs.sampled_from([0.001, 0.015, 0.015, 0.015, 0.04, -0.03]),
               hs.one_of(hs.none(), hs.sampled_from(
                   [np.nan, np.inf, -np.inf])),
               # a stamp override, None (keep the running time) 2 times in 3
               hs.one_of(hs.none(), hs.none(), hs.sampled_from(
                   [np.nan, np.inf, -np.inf]))), max_size=30),
           bad_signal=hs.integers(0, 2),
           threshold=hs.sampled_from([1e-9, 100.0]),
           substitution=hs.sampled_from(["prediction", "freeze"]))
    def test_streams_with_non_finite_payloads(self, k, L, frames, bad_signal,
                                              threshold, substitution):
        hyper = PredictorHyper(subsequence_length=L, embed_dim=4,
                               hidden_dim=4, batch_size=8,
                               learning_rate=1e-3, max_epochs=3, patience=2)
        model = build_model(k=k, hyper=hyper, seed=L)
        rng = np.random.default_rng(k * 100 + len(frames))
        stream, t = [], 0.0
        for gap, bad, bad_stamp in frames:
            t += gap
            payload = rng.uniform(size=k)
            if bad is not None:
                payload[bad_signal % k] = bad
            stream.append((t if bad_stamp is None else bad_stamp, payload))
        out, pushed = _run_recording(
            stream, model, StaticThreshold(threshold=threshold), "ST",
            _unit_scaling(k), 15.0,
            config=OnlineConfig(substitution=substitution))
        assert [d.index for d in out] == list(range(len(stream)))
        assert all(d.disposition in DISPOSITIONS for d in out)
        assert all(np.isfinite(v).all() for v in pushed)
        # a non-finite stamp is a rate drop and leaves the anchor alone:
        # the finite-stamped frames get the verdicts of a stream without it
        finite_only = RateCheckerState(expected_period_ms=15.0)
        latest = -np.inf
        for d, (t, payload) in zip(out, stream):
            if not np.isfinite(payload).all():
                assert d.disposition != "Delivered"
                assert d.score is None
            if not np.isfinite(t):
                assert d.disposition == "DroppedRateViolation"
                assert d.rate_flag == "too_fast"
                continue
            assert d.rate_flag == rate_check(finite_only, t)
            if t < latest:
                assert d.disposition == "DroppedRateViolation"
            latest = max(latest, t)


def _never_flags(variant: str, dim: int, rng) -> OcsvmModel | StaticThreshold:
    """A detector for `variant` whose score is positive for any deviation."""
    if variant == "ST":
        return StaticThreshold(threshold=100.0)
    # f = sum_i alpha_i K(sv_i, x) - rho >= -rho = 1
    return OcsvmModel(support_vectors=rng.normal(size=(2, dim)),
                      alphas=np.array([0.5, 0.5]), rho=-1.0, gamma=1.0,
                      nu=1.0, n_train=2)


class TestOfflineOnlineEquivalence:
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(k=hs.integers(1, 4), L=hs.integers(1, 8), extra=hs.integers(1, 40),
           seed=hs.integers(0, 2**32 - 1), variant=hs.sampled_from(VARIANTS))
    def test_scores_agree_when_nothing_is_dropped(self, k, L, extra, seed,
                                                  variant):
        rng = np.random.default_rng(seed)
        hyper = PredictorHyper(subsequence_length=L, embed_dim=4,
                               hidden_dim=4, batch_size=8,
                               learning_rate=1e-3, max_epochs=3, patience=2)
        model = build_model(k=k, hyper=hyper, seed=seed)
        n = L + extra
        schema = MessageSchema(message_id=0x101, signal_count=k,
                               nominal_period_ms=15.0)
        trace = Trace(schema=schema, timestamps=np.arange(n) * 0.015,
                      signals=rng.uniform(size=(n, k)),
                      labels=np.zeros(n, dtype=np.int64))
        detector = _never_flags(variant, k if variant == "Diff" else 1, rng)
        offline = detect_with(model, _unit_scaling(k), detector, variant,
                              trace)
        online = run_online(zip(trace.timestamps, trace.signals), model,
                            detector, variant, _unit_scaling(k), 15.0)
        assert all(d.disposition == "Delivered" for d in online)
        assert [d.score for d in online[L:]] == offline.scores[L:].tolist()

    @pytest.mark.parametrize("variant", ["ST", "Diff"])
    def test_scores_agree_to_rounding_at_realistic_width(self, variant):
        # at 16 units the gateway's batch-1 forward takes numpy's
        # matrix-vector BLAS path and offline blocks the matrix-matrix one,
        # which round differently; at 4 units (above) both agree exactly
        rng = np.random.default_rng(16)
        k, L, n = 3, 8, 400
        hyper = PredictorHyper(subsequence_length=L, embed_dim=16,
                               hidden_dim=16)
        model = build_model(k=k, hyper=hyper, seed=16)
        schema = MessageSchema(message_id=0x101, signal_count=k,
                               nominal_period_ms=15.0)
        trace = Trace(schema=schema, timestamps=np.arange(n) * 0.015,
                      signals=rng.uniform(size=(n, k)),
                      labels=np.zeros(n, dtype=np.int64))
        detector = _never_flags(variant, k if variant == "Diff" else 1, rng)
        offline = detect_with(model, _unit_scaling(k), detector, variant,
                              trace)
        online = run_online(zip(trace.timestamps, trace.signals), model,
                            detector, variant, _unit_scaling(k), 15.0)
        assert all(d.disposition == "Delivered" for d in online)
        gap = np.abs(np.array([d.score for d in online[L:]])
                     - offline.scores[L:])
        assert gap.max() <= 1e-12


def _as_bits(dispositions: list[FrameDisposition]) -> list[tuple]:
    """Each disposition with its floats as their exact reprs."""
    return [(d.index, repr(d.timestamp), d.disposition, repr(d.score),
             d.rate_flag, d.warmup) for d in dispositions]


class TestGatewayMatchesLoopOracle:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(k=hs.integers(1, 3), L=hs.integers(1, 5),
           frames=hs.lists(hs.tuples(
               # flood, on-period (3 in 6), slow and backward gaps
               hs.sampled_from([0.001, 0.015, 0.015, 0.015, 0.04, -0.03]),
               hs.one_of(hs.none(), hs.none(), hs.sampled_from(
                   [np.nan, np.inf, -np.inf])),
               hs.one_of(hs.none(), hs.none(), hs.none(), hs.sampled_from(
                   [np.nan, np.inf, -np.inf]))), min_size=6, max_size=40),
           variant=hs.sampled_from(["ST", "Diff"]),
           threshold=hs.sampled_from([1e-9, 0.5, 0.8, 100.0]),
           nu=hs.sampled_from([0.1, 0.5]),
           substitution=hs.sampled_from(["prediction", "freeze"]))
    def test_same_dispositions_and_scores(self, k, L, frames, variant,
                                          threshold, nu, substitution):
        hyper = PredictorHyper(subsequence_length=L, embed_dim=4,
                               hidden_dim=4)
        model = build_model(k=k, hyper=hyper, seed=L * 10 + k)
        rng = np.random.default_rng(k * 100 + len(frames))
        stream, t = [], 0.0
        for gap, bad, bad_stamp in frames:
            t += gap
            payload = rng.uniform(size=k)
            if bad is not None:
                payload[int(rng.integers(k))] = bad
            stream.append((t if bad_stamp is None else bad_stamp, payload))
        # the untrained model predicts about 0, so a frame's deviation is
        # about minus its payload: some frames pass, others are dropped
        if variant == "ST":
            detector = StaticThreshold(threshold=threshold)
        else:
            detector = fit_ocsvm(-rng.uniform(size=(30, k)), nu=nu)
        args = (model, detector, variant, _unit_scaling(k), 15.0,
                OnlineConfig(substitution=substitution))
        got = run_online(stream, *args)
        assert _as_bits(got) == _as_bits(run_online_loop(stream, *args))


class TestDispositionsCsv:
    def test_layout(self):
        rows = [
            FrameDisposition(index=0, timestamp=0.0, disposition="Delivered",
                             score=None, rate_flag="ok", warmup=True),
            FrameDisposition(index=1, timestamp=0.015,
                             disposition="DroppedAnomalous", score=-0.25,
                             rate_flag="ok", warmup=False),
        ]
        text = dispositions_csv(rows, provenance={"tool": "canids 0"})
        lines = text.strip().splitlines()
        assert lines[0] == "# tool: canids 0"
        assert lines[1] == "timestamp,disposition,score"
        assert lines[2] == "0.0,Delivered,"
        assert lines[3] == "0.015,DroppedAnomalous,-0.25"

    def test_epoch_timestamps_and_scores_round_trip(self):
        rng = np.random.default_rng(8)
        ts = 1.7e9 + np.arange(2000) * 0.015
        scores = rng.normal(size=2000)
        rows = [FrameDisposition(index=i, timestamp=ts[i],
                                 disposition="Delivered", score=scores[i],
                                 rate_flag="ok", warmup=False)
                for i in range(2000)]
        lines = dispositions_csv(rows).strip().splitlines()[1:]
        back = np.array([[float(v) for v in ln.split(",")[::2]]
                         for ln in lines])
        assert np.array_equal(back[:, 0], ts)
        assert np.array_equal(back[:, 1], scores)
