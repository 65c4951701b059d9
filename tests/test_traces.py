"""Trace model, CSV round-trips, scaling, splits, windows."""

import numpy as np
import pytest

from canids.traces import (
    MessageSchema,
    ScalingParams,
    Trace,
    apply_scaling,
    fit_and_scale,
    from_json,
    json_value,
    load_scaling,
    load_trace,
    save_scaling,
    split_train_val,
    window_arrays,
    write_trace,
)

SCHEMA = MessageSchema(message_id=0x101, signal_count=2,
                       nominal_period_ms=15.0)


def make_trace(n=10, k=2, mid=0x101, seed=0):
    rng = np.random.default_rng(seed)
    schema = MessageSchema(message_id=mid, signal_count=k,
                           nominal_period_ms=15.0)
    return Trace(schema=schema,
                 timestamps=np.arange(n) * 0.015,
                 signals=rng.uniform(0, 10, size=(n, k)),
                 labels=np.zeros(n, dtype=np.int64))


class TestSchema:
    def test_default_signal_names(self):
        s = MessageSchema(message_id=1, signal_count=3, nominal_period_ms=10)
        assert s.signal_names == ("sig_1", "sig_2", "sig_3")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MessageSchema(message_id=1, signal_count=2, nominal_period_ms=10,
                          signal_names=("a", "a"))

    def test_period_conversion(self):
        assert SCHEMA.nominal_period_s == pytest.approx(0.015)


class TestFromJson:
    DOC = {"message_id": 5, "signal_count": 1, "nominal_period_ms": 10.0}

    @pytest.mark.parametrize("value", [1.0, True, "1", None])
    def test_int_field_takes_only_an_int(self, value):
        with pytest.raises(ValueError,
                           match=r"^s\.signal_count: expected int, got"):
            from_json(MessageSchema, {**self.DOC, "signal_count": value}, "s")

    def test_float_field_takes_an_int_as_a_float(self):
        s = from_json(MessageSchema, {**self.DOC, "nominal_period_ms": 10},
                      "s")
        assert type(s.nominal_period_ms) is float

    def test_tuple_field_takes_a_list_of_its_items(self):
        s = from_json(MessageSchema, {**self.DOC, "signal_names": ["a"]}, "s")
        assert s.signal_names == ("a",)
        with pytest.raises(ValueError,
                           match=r"^s\.signal_names\[0\]: expected str"):
            from_json(MessageSchema, {**self.DOC, "signal_names": [1]}, "s")

    def test_bool_and_optional(self):
        assert json_value(None, float | None, "x") is None
        assert json_value(True, bool, "x") is True
        for value, hint in ((1, bool), (None, float), ("0.5", float | None)):
            with pytest.raises(ValueError, match="^x: expected"):
                json_value(value, hint, "x")

    def test_keys(self):
        with pytest.raises(ValueError, match=r"^s: unknown keys \['k'\]"):
            from_json(MessageSchema, {**self.DOC, "k": 1}, "s")
        with pytest.raises(ValueError,
                           match=r"^s: missing keys \['signal_count'\]"):
            from_json(MessageSchema, {"message_id": 5,
                                      "nominal_period_ms": 1.0}, "s")
        # a file header is complete: a field's default does not stand in
        with pytest.raises(ValueError,
                           match=r"^s: missing keys \['signal_names'\]"):
            from_json(MessageSchema, self.DOC, "s", complete=True)

    def test_class_checks_name_where(self):
        with pytest.raises(ValueError, match="^s: signal_count must be"):
            from_json(MessageSchema, {**self.DOC, "signal_count": 0}, "s")


class TestTraceModel:
    def test_arrays_are_read_only(self):
        t = make_trace()
        with pytest.raises(ValueError):
            t.signals[0, 0] = 99.0
        with pytest.raises(ValueError):
            t.timestamps[0] = 99.0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace(schema=SCHEMA, timestamps=np.arange(3.0),
                  signals=np.zeros((3, 5)), labels=np.zeros(3, dtype=np.int64))

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trace(schema=SCHEMA, timestamps=np.array([0.0, 2.0, 1.0]),
                  signals=np.zeros((3, 2)), labels=np.zeros(3, dtype=np.int64))


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        schema = MessageSchema(message_id=0x2A, signal_count=2,
                               nominal_period_ms=15.0)
        rng = np.random.default_rng(3)
        t = Trace(schema=schema,
                  timestamps=np.arange(25) * 0.015625,
                  signals=rng.integers(0, 10_000, size=(25, 2)) / 64.0,
                  labels=(rng.uniform(size=25) < 0.3).astype(np.int64))
        p = tmp_path / "t.csv"
        write_trace(t, p, provenance={"seed": 3})
        back = load_trace(p, schema)
        assert np.array_equal(back.timestamps, t.timestamps)
        assert np.array_equal(back.signals, t.signals)
        assert np.array_equal(back.labels, t.labels)

    def test_round_trip_exact_for_arbitrary_floats(self, tmp_path):
        t = make_trace(n=25, seed=3)
        p = tmp_path / "t.csv"
        write_trace(t, p)
        back = load_trace(p, t.schema)
        assert np.array_equal(back.timestamps, t.timestamps)
        assert np.array_equal(back.signals, t.signals)

    def test_three_rows_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0.0,0x101,2,1.0,2.0,0\n"
                     "0.015,0x101,2,1.1,2.1,0\n"
                     "0.030,0x101,2,1.2,2.2,0\n")
        t = load_trace(p, SCHEMA)
        assert len(t) == 3
        assert t.labels.tolist() == [0, 0, 0]

    def test_empty_file_reports_no_records(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n")
        with pytest.raises(ValueError, match="no records"):
            load_trace(p, SCHEMA)

    def test_bad_label_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0.0,0x101,2,1.0,2.0,2\n")
        with pytest.raises(ValueError, match=r":2: label"):
            load_trace(p, SCHEMA)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected_with_line_number(self, tmp_path,
                                                            stamp):
        # a NaN compares False against its neighbours, so without this check
        # it would also let the backward row after it through
        p = tmp_path / "t.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0,0x101,2,1.0,2.0,0\n"
                     "0.015,0x101,2,1.1,2.1,0\n"
                     f"{stamp},0x101,2,1.2,2.2,0\n"
                     "0.0001,0x101,2,1.3,2.3,0\n")
        with pytest.raises(ValueError,
                           match=r"t\.csv:4: timestamp .* not finite"):
            load_trace(p, SCHEMA)

    def test_non_utf8_bytes_rejected_naming_the_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"timestamp,message_id,k,sig_1,sig_2,label\n"
                      b"0.0,0x101,2,1.0,2.\xff,0\n")
        with pytest.raises(ValueError, match=r"t\.csv: not UTF-8 text"):
            load_trace(p, SCHEMA)

    def test_wrong_message_id_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0.0,0x202,2,1.0,2.0,0\n")
        with pytest.raises(ValueError, match="0x202"):
            load_trace(p, SCHEMA)

    def test_wrong_column_count_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0.0,0x101,2,1.0,0\n")
        with pytest.raises(ValueError, match="columns"):
            load_trace(p, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.csv", SCHEMA)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# provenance here\n\n"
                     "timestamp,message_id,k,sig_1,sig_2,label\n"
                     "0.0,0x101,2,1.0,2.0,0\n")
        assert len(load_trace(p, SCHEMA)) == 1


class TestScaling:
    def test_column_scales_to_unit_interval(self):
        t = Trace(schema=MessageSchema(message_id=1, signal_count=1,
                                       nominal_period_ms=10),
                  timestamps=np.arange(3.0),
                  signals=np.array([[10.0], [20.0], [30.0]]),
                  labels=np.zeros(3, dtype=np.int64))
        scaled, params = fit_and_scale(t)
        assert scaled.signals[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert params.mins == (10.0,) and params.maxs == (30.0,)

    def test_degenerate_column_maps_to_zero(self):
        t = Trace(schema=MessageSchema(message_id=1, signal_count=1,
                                       nominal_period_ms=10),
                  timestamps=np.arange(3.0),
                  signals=np.array([[5.0], [5.0], [5.0]]),
                  labels=np.zeros(3, dtype=np.int64))
        scaled, _ = fit_and_scale(t)
        assert np.all(scaled.signals == 0.0)

    def test_stored_params_on_fresh_values(self):
        params = ScalingParams(signal_names=("a",), mins=(10.0,), maxs=(30.0,))
        assert params.apply(np.array([25.0]))[0] == pytest.approx(0.75)
        assert params.apply(np.array([10.0]))[0] == 0.0
        assert params.apply(np.array([30.0]))[0] == 1.0

    def test_out_of_range_values_not_clipped(self):
        params = ScalingParams(signal_names=("a",), mins=(10.0,), maxs=(30.0,))
        assert params.apply(np.array([35.0]))[0] == pytest.approx(1.25)
        assert params.apply(np.array([0.0]))[0] == pytest.approx(-0.5)

    def test_dimension_mismatch_rejected(self):
        t = make_trace(k=2)
        params = ScalingParams(signal_names=("a",), mins=(0.0,), maxs=(1.0,))
        with pytest.raises(ValueError):
            apply_scaling(t, params)

    def test_sidecar_round_trip(self, tmp_path):
        params = ScalingParams(signal_names=("speed", "rpm"),
                               mins=(0.0, -3.5), maxs=(1.0, 880.25))
        p = tmp_path / "scaling.csv"
        save_scaling(params, p)
        back = load_scaling(p)
        assert back.signal_names == params.signal_names
        assert np.array_equal(back.mins, params.mins)
        assert np.array_equal(back.maxs, params.maxs)


    def test_non_finite_bounds_rejected(self):
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0),
                       (0.0, np.inf)):
            with pytest.raises(ValueError, match="non-finite.*b"):
                ScalingParams(signal_names=("a", "b"), mins=(0.0, lo),
                              maxs=(1.0, hi))

    def test_fit_on_non_finite_signal_rejected(self):
        t = make_trace(n=10, k=2)
        signals = t.signals.copy()
        signals[4, 1] = np.nan
        with pytest.raises(ValueError, match="sig_2"):
            fit_and_scale(t.replace_data(signals=signals))

    def test_nan_sidecar_rejected(self, tmp_path):
        p = tmp_path / "scaling.csv"
        p.write_text("sig_1,0.0,1.0\nsig_2,nan,nan\n")
        with pytest.raises(ValueError, match="sig_2"):
            load_scaling(p)


class TestSplit:
    def test_80_20(self):
        t = make_trace(n=10)
        tr, va = split_train_val(t, 0.8)
        assert len(tr) == 8 and len(va) == 2

    def test_floor_arithmetic(self):
        t = make_trace(n=10)
        tr, va = split_train_val(t, 0.95)
        assert len(tr) == 9 and len(va) == 1

    def test_order_preserved_and_concatenation_exact(self):
        t = make_trace(n=10, seed=9)
        tr, va = split_train_val(t, 0.8)
        assert np.array_equal(np.concatenate([tr.signals, va.signals]),
                              t.signals)
        assert np.array_equal(np.concatenate([tr.timestamps, va.timestamps]),
                              t.timestamps)

    def test_empty_side_rejected(self):
        t = make_trace(n=10)
        with pytest.raises(ValueError):
            split_train_val(t, 0.05)  # floor(0.5) = 0 -> empty train


class TestWindows:
    def test_counts(self):
        assert len(window_arrays(make_trace(n=5), 3)[0]) == 2
        assert len(window_arrays(make_trace(n=4), 3)[0]) == 1
        assert len(window_arrays(make_trace(n=100), 32)[0]) == 68

    def test_window_contents_and_target(self):
        t = make_trace(n=5, seed=1)
        X, Y = window_arrays(t, 3)
        assert np.array_equal(X[0], t.signals[0:3])
        assert np.array_equal(Y[0], t.signals[3])
        assert np.array_equal(X[1], t.signals[1:4])
        assert np.array_equal(Y[1], t.signals[4])

    def test_consecutive_windows_overlap(self):
        t = make_trace(n=30, seed=2)
        X, _ = window_arrays(t, 8)
        for i in range(len(X) - 1):
            assert np.array_equal(X[i][1:], X[i + 1][:-1])

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError):
            window_arrays(make_trace(n=3), 3)
