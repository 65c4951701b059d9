"""Trace model, CSV round-trips, scaling, splits, windows."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from canids import pipeline, traces
from canids.detector import VARIANTS
from canids.pipeline import DetectionTable, detection_csv, parse_detection_csv
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
    read_table,
    save_scaling,
    split_train_val,
    table_text,
    window_arrays,
    write_trace,
)
from oracles import load_scaling_rows, load_trace_rows, parse_detection_rows

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

    @pytest.mark.parametrize("period", [np.nan, np.inf, 0.0, -15.0])
    def test_period_must_be_finite_and_positive(self, period):
        # an infinite period would otherwise pass here and be refused
        # only later, by the rate gate
        with pytest.raises(ValueError, match="nominal_period_ms must be "
                                             "finite and positive"):
            MessageSchema(message_id=1, signal_count=1,
                          nominal_period_ms=period)

    @pytest.mark.parametrize("names", [(), ("a", "b"), ["a", "b"], ("a",),
                                       ("a", "a")])
    def test_scaling_names_follow_the_schema_rule(self, names):
        def outcome(build):
            try:
                return build().signal_names
            except ValueError as exc:
                return str(exc)

        schema = outcome(lambda: MessageSchema(1, 2, 10.0, names))
        scaling = outcome(lambda: ScalingParams(np.zeros(2), np.ones(2),
                                                names))
        assert schema == scaling


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
            fit_and_scale(dataclasses.replace(t, signals=signals))

    def test_nan_sidecar_rejected(self, tmp_path):
        p = tmp_path / "scaling.csv"
        p.write_text("sig_1,0.0,1.0\nsig_2,nan,nan\n")
        with pytest.raises(ValueError, match="sig_2"):
            load_scaling(p)

    @pytest.mark.parametrize("data, match", [
        (b"sig_1,0.0,1.0\nsig_2,0.\xff,1.0\n", r"s\.csv: not UTF-8 text"),
        (b"sig_1,0.0,1.0\nsig_2,x,1.0\n",
         r"s\.csv:2: malformed row: could not convert"),
        (b"sig_1,0.0,1.0\nsig_2,nan,1.0\n",
         r"s\.csv: non-finite min or max for signal\(s\) sig_2$"),
        (b"sig_1,0.0,inf\n", r"s\.csv: non-finite min or max"),
        (b"sig_1,0.0,1.0\nsig_1,0.0,2.0\n",
         r"s\.csv: signal names must be distinct"),
        (b"sig_1,2.0,1.0\n", r"s\.csv: per-signal min must not exceed max"),
        (b"sig_1,0.0,1.0\nsig_2,0.0\n", r"s\.csv:2: expected 3 columns, got 2"),
        (b"# a comment\n\n", r"s\.csv: no records"),
    ], ids=["non-utf8", "malformed-float", "nan-bound", "inf-bound",
            "repeated-name", "min-above-max", "short-row", "no-rows"])
    def test_bad_sidecar_names_the_file(self, tmp_path, data, match):
        p = tmp_path / "s.csv"
        p.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            load_scaling(p)

    def test_one_name_per_signal_required(self):
        # with a name missing, the sidecar would silently drop a signal
        with pytest.raises(ValueError, match="expected 2 signal names"):
            ScalingParams(signal_names=("a",), mins=(0.0, 1.0),
                          maxs=(1.0, 2.0))


def _run_in_ascii_locale(code: str, *args) -> subprocess.CompletedProcess:
    """Run a Python snippet with an ASCII locale codec: LC_ALL=C and the
    UTF-8 mode off (`-X utf8=0`), which Python would otherwise switch on
    for C."""
    env = {**os.environ, "LC_ALL": "C",
           "PYTHONPATH": str(Path(traces.__file__).parents[1])}
    # the snippet first requires that the locale's codec is not UTF-8
    code = ("import locale\n"
            "assert locale.getpreferredencoding(False).lower() in "
            "('ansi_x3.4-1968', 'ascii', 'us-ascii')\n" + code)
    return subprocess.run([sys.executable, "-X", "utf8=0", "-c", code,
                           *map(str, args)], env=env, capture_output=True)


class TestUtf8WhateverTheLocale:
    def test_sidecar_with_a_non_ascii_name_is_written_as_utf8(self,
                                                               tmp_path):
        p = tmp_path / "s.csv"
        done = _run_in_ascii_locale(
            "import sys\n"
            "import numpy as np\n"
            "from canids.traces import ScalingParams, save_scaling\n"
            "save_scaling(ScalingParams(np.zeros(1), np.ones(1),\n"
            "                           ('vitesse_\\u00e9',)), sys.argv[1])\n",
            p)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert p.read_bytes() == "vitesse_\u00e9,0.0,1.0\n".encode("utf-8")

    def test_utf8_sidecar_is_read(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes("# note: caf\u00e9\nspeed,0.0,1.0\n".encode("utf-8"))
        done = _run_in_ascii_locale(
            "import sys\n"
            "from canids.traces import load_scaling\n"
            "assert load_scaling(sys.argv[1]).signal_names == ('speed',)\n",
            p)
        assert done.returncode == 0, done.stderr.decode(errors="replace")


class TestTableCodec:
    def test_comments_and_rows_keep_their_line_numbers(self):
        text = table_text("h1,h2", [["1"], [""]], {"tool": "canids 0"})
        text = text.replace("h1,h2\n", "# free\x0ctext\u2028\n\nh1,h2\n"
                                        "# seed: 7\n")
        (block,) = read_table("t.csv", "h1,h2", 2, text=text)
        assert block.comments == [(1, "tool", "canids 0"), (5, "seed", "7")]
        assert list(block.lines) == [6]
        assert block.columns == [["1"], [""]]


# in blocks of four lines, line 5 is the first row of a table's second
# block, line 8 its last and line 9 the first row past that boundary
_FIRST, _LAST, _NEXT = 5, 8, 9


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_LINES", 4)


def _one_block(read):
    """`read()` with the whole table in one block."""
    with mock.patch.object(traces, "_BLOCK_LINES", 1 << 20):
        return read()


def _raised(read) -> str:
    with pytest.raises(ValueError) as exc:
        read()
    return str(exc.value)


_TRACE_HEADER = "timestamp,message_id,k,sig_1,sig_2,label"


def _trace_text(edit=None, line=None, n=20) -> str:
    """A 20-row trace of SCHEMA; `edit` changes the cells of `line`."""
    lines = ["# seed: 7", _TRACE_HEADER]
    for i in range(n):
        cells = [repr(i * 0.015), "0x101", "2", f"{i}.5", f"-{i}.25",
                 str(i % 2)]
        if len(lines) + 1 == line:
            edit(cells)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _set(col, value):
    def edit(cells):
        cells[col] = value
    return edit


def _drop(col):
    def edit(cells):
        del cells[col]
    return edit


_TRACE_FAULTS = {
    "malformed-float": (_set(3, "1.2.3"), "malformed row: could not "
                        "convert string to float: '1.2.3'"),
    "wrong-width": (_drop(4), "expected 6 columns, got 5"),
    "bad-label": (_set(5, "2"), "label must be 0 or 1, got 2"),
    "message-id": (_set(1, "0x202"),
                   "message_id 0x202 does not match schema 0x101"),
    "nan-timestamp": (_set(0, "nan"), "timestamp nan is not finite"),
    # the row before line 5 or 9 ends the block before
    "backward-timestamp": (_set(0, "-0.001"),
                           "timestamps must be non-decreasing"),
}

_DETECTION_FAULTS = {
    "malformed-float": (_set(2, "x"), "malformed row: could not convert "
                        "string to float: 'x'"),
    "wrong-width": (_drop(6), "expected 7 columns, got 6"),
    "bad-label": (_set(1, "2"), "label and flags must be 0 or 1"),
    "bad-flag": (_set(5, "-1"), "label and flags must be 0 or 1"),
}


def _detection_text(edit=None, line=None, n=20) -> str:
    """A 20-row detection table, its provenance on lines 1-3 and its
    header on line 4 (so line 5 is its first row); `edit` changes the
    cells of `line`."""
    t = DetectionTable(
        message_id=0x55, variant="Diff", eval_from=2,
        timestamps=np.arange(n) * 0.015, labels=np.arange(n) % 2,
        scores=np.r_[np.nan, np.nan, np.linspace(-1, 1, n - 2)],
        ml_flag=np.arange(n) // 3 % 2, rate_fast=np.zeros(n, dtype=int),
        rate_slow=np.arange(n) // 5 % 2, final_flag=np.arange(n) // 3 % 2)
    lines = detection_csv(t).splitlines()
    if edit is not None:
        cells = lines[line - 1].split(",")
        edit(cells)
        lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestTableBlocks:
    """Tables read in blocks load as they do in one; a fault in any block
    raises the message a one-block read raises, naming the same line."""

    def test_blocks_split_a_table_by_lines(self, small_blocks):
        blocks = list(read_table("t.csv", _TRACE_HEADER, 6,
                                 text=_trace_text()))
        assert [list(b.lines) for b in blocks] == [
            [3, 4], *(list(range(i, i + 4)) for i in (5, 9, 13, 17)),
            [21, 22]]
        assert blocks[0].comments == [(1, "seed", "7")]
        assert [c for b in blocks for c in b.columns[0]] == \
            [repr(i * 0.015) for i in range(20)]

    def test_trace_loads_bit_identically(self, tmp_path, small_blocks):
        p = tmp_path / "t.csv"
        p.write_text(_trace_text())
        small = load_trace(p, SCHEMA)
        one = _one_block(lambda: load_trace(p, SCHEMA))
        assert len(list(read_table(p, None, 6))) >= 3
        assert _bits(small.timestamps) == _bits(one.timestamps)
        assert _bits(small.signals) == _bits(one.signals)
        assert np.array_equal(small.labels, one.labels)

    def test_detection_table_loads_bit_identically(self, small_blocks):
        text = _detection_text()
        small = parse_detection_csv(text, "d.csv")
        one = _one_block(lambda: parse_detection_csv(text, "d.csv"))
        assert len(list(read_table("d.csv", None, 7, text=text))) >= 3
        for col in ("timestamps", "scores"):
            assert _bits(getattr(small, col)) == _bits(getattr(one, col))
        for col in ("labels", "ml_flag", "rate_fast", "rate_slow",
                    "final_flag"):
            assert np.array_equal(getattr(small, col), getattr(one, col))
        assert (small.message_id, small.variant, small.eval_from) == \
            (one.message_id, one.variant, one.eval_from)

    def test_scaling_sidecar_loads_bit_identically(self, tmp_path,
                                                   small_blocks):
        params = ScalingParams(mins=np.arange(13) * -0.1,
                               maxs=np.arange(13) * 0.3 + 1e-3,
                               signal_names=tuple(f"s{i}" for i in range(13)))
        p = tmp_path / "s.csv"
        save_scaling(params, p)
        assert len(list(read_table(p, None, 3))) >= 3
        small = load_scaling(p)
        one = _one_block(lambda: load_scaling(p))
        assert small.signal_names == one.signal_names == params.signal_names
        assert _bits(small.mins) == _bits(one.mins) == _bits(params.mins)
        assert _bits(small.maxs) == _bits(one.maxs) == _bits(params.maxs)

    @pytest.mark.parametrize("line", [_FIRST, _LAST, _NEXT])
    @pytest.mark.parametrize("fault", sorted(_TRACE_FAULTS))
    def test_trace_fault_names_its_line(self, tmp_path, small_blocks, fault,
                                        line):
        edit, message = _TRACE_FAULTS[fault]
        p = tmp_path / "t.csv"
        p.write_text(_trace_text(edit, line))
        raised = _raised(lambda: load_trace(p, SCHEMA))
        assert raised == f"{p}:{line}: {message}"
        assert _one_block(lambda: _raised(lambda: load_trace(p, SCHEMA))) \
            == raised

    @pytest.mark.parametrize("line", [_FIRST, _LAST, _NEXT])
    @pytest.mark.parametrize("fault", sorted(_DETECTION_FAULTS))
    def test_detection_fault_names_its_line(self, small_blocks, fault, line):
        edit, message = _DETECTION_FAULTS[fault]
        text = _detection_text(edit, line)

        def read():
            return parse_detection_csv(text, "d.csv")
        assert _raised(read) == f"d.csv:{line}: {message}"
        assert _one_block(lambda: _raised(read)) == _raised(read)

    @pytest.mark.parametrize("line", [3, 4, 5])
    def test_sidecar_fault_names_its_line(self, tmp_path, small_blocks,
                                          line):
        # a headerless table: blocks of four lines hold the rows 1-4, 5-8
        rows = [f"s{i},0.0,1.0" for i in range(1, 10)]
        rows[line - 1] = f"s{line},0.0,1.0.0"
        p = tmp_path / "s.csv"
        p.write_text("\n".join(rows) + "\n")
        raised = _raised(lambda: load_scaling(p))
        assert raised == (f"{p}:{line}: malformed row: could not convert "
                          "string to float: '1.0.0'")
        assert _one_block(lambda: _raised(lambda: load_scaling(p))) == raised

    def test_comments_and_blank_lines_between_blocks(self, small_blocks):
        text = _detection_text()
        lines = text.splitlines()
        # a comment and a blank line inside the rows, and provenance last
        lines[9:9] = ["# note: between", ""]
        lines.append("# seed: 7")
        text = "\n".join(lines) + "\n"
        back = parse_detection_csv(text, "d.csv")
        want = parse_detection_csv(_detection_text(), "d.csv")
        assert _bits(back.scores) == _bits(want.scores)
        assert _raised(lambda: parse_detection_csv(
            text.replace("0.015,", "0.015,x,", 1), "d.csv")).startswith(
            "d.csv:6: expected 7 columns")

    def test_well_formed_blocks_convert_a_column_at_a_time(
            self, tmp_path, monkeypatch, small_blocks):
        # one converter call per block: the search for a faulty row is only
        # for a block that has one
        p = tmp_path / "t.csv"
        p.write_text(_trace_text())
        calls = []
        for module, name in ((traces, "_trace_columns"),
                             (pipeline, "_detection_columns")):
            def spy(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, spy)
        assert len(load_trace(p, SCHEMA)) == 20
        assert calls == ["_trace_columns"] * len(list(read_table(p, None, 6)))
        calls.clear()
        text = _detection_text()
        assert len(parse_detection_csv(text, "d.csv")) == 20
        assert calls == ["_detection_columns"] * len(
            list(read_table("d.csv", None, 7, text=text)))


# what a fault writes over a cell, and the columns it may hit: in any
# column a malformed, empty, NaN or infinite cell; then a wrong message_id
# or k, label 2, flag -1, and a stamp before the rows around it or after
# them (the next row is then the backward one)
_ANY_CELL = ("1.2.3", "", "nan", "inf", "-inf")


def _trace_cell_faults(width: int) -> list:
    """The faults of a trace of `width` columns."""
    return [*((cell, range(width)) for cell in _ANY_CELL), ("0x202", [1]),
            ("3", [2]), ("2", [width - 1]), ("-0.5", [0]), ("1e9", [0])]


_DETECTION_CELL_FAULTS = [*((cell, range(7)) for cell in _ANY_CELL),
                         ("2", [1]), ("-1", [3, 4, 5, 6]), ("-0.5", [0]),
                         ("1e9", [0])]
_SIDECAR_CELL_FAULTS = [(cell, [1, 2]) for cell in _ANY_CELL]
_ORACLE = settings(max_examples=300, derandomize=True, deadline=None,
                   suppress_health_check=[
                       HealthCheck.function_scoped_fixture])
_ORACLE_BLOCKS = hs.sampled_from([1, 2, 3, 4, 7, 1 << 14])


def _with_faults(data, text: str, faults: list, header: int = 1) -> str:
    """`text` with 1-4 cells of one or two of its rows (the lines with a
    comma past the `header` lines) overwritten by `faults` entries."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines)
            if "," in line and not line.startswith("#")][header:]
    rows = data.draw(hs.lists(hs.sampled_from(rows), min_size=1,
                              max_size=2))
    for _ in range(data.draw(hs.integers(1, 4))):
        i = data.draw(hs.sampled_from(rows))
        cell, columns = data.draw(hs.sampled_from(faults))
        cells = lines[i].split(",")
        cells[data.draw(hs.sampled_from(columns))] = cell
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _outcome(read):
    """`read()`, or the message of the ValueError it raises."""
    try:
        return read()
    except ValueError as exc:
        return str(exc)


def _assert_same(got, want) -> None:
    """The same message, or dataclasses whose fields are equal (arrays
    bit for bit)."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


class TestReadersMatchRowOracle:
    """Tables with faulty cells, read in blocks of any height, load as the
    row-by-row readers of tests/oracles.py load them, or raise the same
    message."""

    @_ORACLE
    @given(data=hs.data(), n=hs.integers(1, 30), k=hs.integers(1, 3),
           lines=_ORACLE_BLOCKS)
    def test_trace(self, tmp_path, data, n, k, lines):
        schema = MessageSchema(message_id=0x101, signal_count=k,
                               nominal_period_ms=15.0)
        rng = np.random.default_rng(n)
        t = Trace(schema=schema, timestamps=np.arange(n) * 0.015,
                  signals=rng.normal(size=(n, k)),
                  labels=rng.integers(0, 2, size=n))
        p = tmp_path / "t.csv"
        write_trace(t, p, provenance={"seed": 7})
        p.write_text(_with_faults(data, p.read_text(),
                                 _trace_cell_faults(k + 4)))
        with mock.patch.object(traces, "_BLOCK_LINES", lines):
            _assert_same(_outcome(lambda: load_trace(p, schema)),
                         _outcome(lambda: load_trace_rows(p, schema)))

    @_ORACLE
    @given(data=hs.data(), n=hs.integers(3, 30), lines=_ORACLE_BLOCKS)
    def test_detection_table(self, data, n, lines):
        text = _with_faults(data, _detection_text(n=n),
                            _DETECTION_CELL_FAULTS)
        with mock.patch.object(traces, "_BLOCK_LINES", lines):
            _assert_same(_outcome(lambda: parse_detection_csv(text, "d.csv")),
                         _outcome(lambda: parse_detection_rows(text, "d.csv")))

    @_ORACLE
    @given(data=hs.data(), n=hs.integers(1, 12), lines=_ORACLE_BLOCKS)
    def test_scaling_sidecar(self, tmp_path, data, n, lines):
        params = ScalingParams(mins=np.arange(n) * -0.1,
                               maxs=np.arange(n) * 0.3 + 1e-3,
                               signal_names=tuple(f"s{i}" for i in range(n)))
        p = tmp_path / "s.csv"
        save_scaling(params, p)
        p.write_text(_with_faults(data, p.read_text(), _SIDECAR_CELL_FAULTS,
                                 header=0))
        with mock.patch.object(traces, "_BLOCK_LINES", lines):
            _assert_same(_outcome(lambda: load_scaling(p)),
                         _outcome(lambda: load_scaling_rows(p)))


# finite floats with the cases a table must keep bit for bit: signed zeros,
# subnormals and Unix-epoch stamps (bounded so that differences of two
# stamps stay finite)
_FLOATS = hs.one_of(
    hs.floats(-1e300, 1e300),
    hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e9 + 0.015]),
    hs.floats(1.5e9, 2.0e9))
_ROUND_TRIP = settings(max_examples=60, derandomize=True, deadline=None,
                       suppress_health_check=[
                           HealthCheck.function_scoped_fixture])


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestTableRoundTrip:
    """Every table the tools read back returns the values it was written
    from, bit for bit."""

    @_ROUND_TRIP
    @given(data=hs.data(), k=hs.integers(1, 3), n=hs.integers(1, 12),
           mid=hs.integers(0, 0x7FF))
    def test_trace(self, tmp_path, data, k, n, mid):
        schema = MessageSchema(message_id=mid, signal_count=k,
                               nominal_period_ms=15.0)
        stamps = sorted(data.draw(hs.lists(_FLOATS, min_size=n, max_size=n)))
        cells = _FLOATS | hs.sampled_from([np.inf, -np.inf])
        signals = data.draw(hs.lists(hs.lists(cells, min_size=k, max_size=k),
                                     min_size=n, max_size=n))
        labels = data.draw(hs.lists(hs.integers(0, 1), min_size=n,
                                    max_size=n))
        t = Trace(schema=schema, timestamps=stamps, signals=signals,
                  labels=labels)
        p = tmp_path / "t.csv"
        write_trace(t, p, provenance={"seed": 7})
        back = load_trace(p, schema)
        assert _bits(back.timestamps) == _bits(t.timestamps)
        assert _bits(back.signals) == _bits(t.signals)
        assert np.array_equal(back.labels, t.labels)

    @_ROUND_TRIP
    @given(data=hs.data(), n=hs.integers(1, 12),
           mid=hs.integers(0, 2**29 - 1), variant=hs.sampled_from(VARIANTS))
    def test_detection_table(self, data, n, mid, variant):
        # a NaN score is an unscored record, written as an empty cell
        floats = hs.lists(_FLOATS, min_size=n, max_size=n)
        scores = data.draw(hs.lists(
            _FLOATS | hs.sampled_from([np.nan, np.inf, -np.inf]),
            min_size=n, max_size=n))
        bits = [np.array(data.draw(hs.lists(hs.integers(0, 1), min_size=n,
                                            max_size=n))) for _ in range(5)]
        t = DetectionTable(
            message_id=mid, variant=variant,
            eval_from=data.draw(hs.integers(0, n - 1)),
            timestamps=np.array(data.draw(floats)), labels=bits[0],
            scores=np.array(scores), ml_flag=bits[1], rate_fast=bits[2],
            rate_slow=bits[3], final_flag=bits[4])
        back = parse_detection_csv(detection_csv(t, {"seed": 7}), "d.csv")
        assert (back.message_id, back.variant, back.eval_from) == \
            (mid, variant, t.eval_from)
        assert _bits(back.timestamps) == _bits(t.timestamps)
        unscored = np.isnan(t.scores)
        assert np.array_equal(np.isnan(back.scores), unscored)
        assert _bits(back.scores[~unscored]) == _bits(t.scores[~unscored])
        for col in ("labels", "ml_flag", "rate_fast", "rate_slow",
                    "final_flag"):
            assert np.array_equal(getattr(back, col), getattr(t, col))

    @_ROUND_TRIP
    @given(names=hs.lists(hs.text("abcXYZ_019.", min_size=1, max_size=6),
                          min_size=1, max_size=4, unique=True),
           data=hs.data())
    def test_scaling_sidecar(self, tmp_path, names, data):
        pairs = [sorted(data.draw(hs.tuples(_FLOATS, _FLOATS)))
                 for _ in names]
        params = ScalingParams(mins=[lo for lo, _ in pairs],
                               maxs=[hi for _, hi in pairs],
                               signal_names=tuple(names))
        p = tmp_path / "s.csv"
        save_scaling(params, p)
        back = load_scaling(p)
        assert back.signal_names == params.signal_names
        assert _bits(back.mins) == _bits(params.mins)
        assert _bits(back.maxs) == _bits(params.maxs)


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
