"""CAN message trace data model.

A trace is the time-ordered log of one CAN message ID: per record a
timestamp, the signal values carried in the payload, and a 0/1 anomaly
label. Traces are stored column-wise as read-only numpy arrays and are
immutable after construction, so they can be shared freely between
workers. All transformations return new Trace objects.

Trace file format (one file per message ID)::

    timestamp,message_id,k,sig_1,...,sig_k,label

in the CSV layout every table shares ('#' provenance lines, a header,
rows; see `table_text`). Floats are rendered by `float_cells`; the message
ID is in hex.

`read_table` hands a table over in blocks of `_BLOCK_LINES` lines, each
as one list of cells per column. Each loader has one converter, which
turns a block's columns into arrays or raises the message of a faulty row;
`convert_block` finds the block's first faulty row and names its line.
Memory beyond the file's text and the arrays a load fills is one block's
cells, however long the file: the hour-long 33 MB capture peaks at about
2.2x its size, where a reader holding every row took 12x.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import types
import typing
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# --------------------------------------------------------------------------
# typed records from JSON: config sections, attack specs, manifests and the
# model and detector file headers all go through `from_json`


def _type_name(hint) -> str:
    """A type's name as JSON spells it."""
    if dataclasses.is_dataclass(hint):
        return "object"
    if typing.get_origin(hint) is tuple:
        return f"list of {_type_name(typing.get_args(hint)[0])}"
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(_type_name(a) for a in typing.get_args(hint))
    return {type(None): "null", dict: "object"}.get(hint, hint.__name__)


def json_value(value, hint, where: str):
    """`value`, read from JSON, checked against the type `hint`.

    An int takes an int but not a bool; a float also takes an int, returned
    as a float, but never NaN or an infinity (Python's json reads `NaN` and
    `Infinity`); a bool takes only a bool; `X | None` also takes null; a
    `tuple[X, ...]` takes a list of X, returned as a tuple; a dataclass
    takes an object (see `from_json`); `np.ndarray` takes an array, as a
    model file's blocks are. A mismatch raises ValueError naming `where`.
    """
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{where}: {value} is not a finite number")
    if type(value) is hint:
        return value
    want = hint
    if typing.get_origin(hint) is types.UnionType:
        if value is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if type(value) is list:
            item = typing.get_args(hint)[0]
            return tuple(json_value(v, item, f"{where}[{i}]")
                         for i, v in enumerate(value))
    elif hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where}: {value} is out of float range") \
                from None
    elif type(value) is hint:
        return value
    raise ValueError(
        f"{where}: expected {_type_name(want)}, "
        f"got {_type_name(type(value))}")


@functools.cache
def _field_types(cls) -> tuple[dict, frozenset]:
    """A dataclass's field types by name, and the names with no default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(
        f.name for f in fields if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def from_json(cls, doc, where: str, complete: bool = False):
    """Build the frozen dataclass `cls` from the JSON object `doc`.

    The keys are `cls`'s fields and no others; a missing key takes its
    field's default, unless the field has none or `complete` is set (a file
    header, which its writer always writes in full). Each value is checked
    by `json_value` against its field's type. A mismatch, or a value the
    class itself rejects, raises ValueError naming `where` and the key.
    """
    if type(doc) is not dict:
        raise ValueError(
            f"{where}: expected an object, got {_type_name(type(doc))}")
    hints, required = _field_types(cls)
    unknown = doc.keys() - hints.keys()
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = (hints.keys() if complete else required) - doc.keys()
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")
    values = {name: json_value(v, hints[name], f"{where}.{name}")
              for name, v in doc.items()}
    try:
        return cls(**values)
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer past float range met float arithmetic
        raise ValueError(f"{where}: {exc}") from None


def _signal_names(names: Sequence[str], count: int) -> tuple[str, ...]:
    """The names of `count` signals as a tuple, sig_1..sig_count when none
    are given; a wrong count or a repeated name raises ValueError."""
    names = tuple(names) or tuple(f"sig_{i + 1}" for i in range(count))
    if len(names) != count:
        raise ValueError(f"expected {count} signal names, got {len(names)}")
    if len(set(names)) != count:
        raise ValueError("signal names must be distinct")
    return names


@dataclass(frozen=True)
class MessageSchema:
    """Static description of one CAN message type."""

    message_id: int
    signal_count: int
    nominal_period_ms: float
    signal_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.signal_count < 1:
            raise ValueError("signal_count must be >= 1")
        if not 0 < self.nominal_period_ms < math.inf:
            raise ValueError("nominal_period_ms must be finite and positive")
        object.__setattr__(self, "signal_names", _signal_names(
            self.signal_names, self.signal_count))

    @property
    def nominal_period_s(self) -> float:
        return self.nominal_period_ms / 1000.0


@dataclass(frozen=True)
class ScalingParams:
    """Per-signal (min, max) pairs for 0-1 scaling; every bound is finite,
    and each signal has one name of its own."""

    mins: np.ndarray
    maxs: np.ndarray
    signal_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mins = _readonly(np.asarray(self.mins, dtype=np.float64))
        maxs = _readonly(np.asarray(self.maxs, dtype=np.float64))
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins and maxs must be 1-D arrays of equal length")
        if np.any(mins > maxs):
            raise ValueError("per-signal min must not exceed max")
        object.__setattr__(self, "signal_names", _signal_names(
            self.signal_names, len(mins)))
        bad = ~(np.isfinite(mins) & np.isfinite(maxs))
        if bad.any():
            names = ", ".join(n for n, b in zip(self.signal_names, bad) if b)
            raise ValueError(f"non-finite min or max for signal(s) {names}")
        # the non-degenerate signals, their mins and spans, for every apply
        span = maxs - mins
        ok = span > 0
        object.__setattr__(self, "_ok", ok)
        object.__setattr__(self, "_ok_mins", mins[ok])
        object.__setattr__(self, "_ok_spans", span[ok])

    @property
    def signal_count(self) -> int:
        return len(self.mins)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map raw values into scaled space; degenerate signals map to 0.

        Values outside the stored range land outside [0, 1] and are kept
        unclipped on purpose: attack payloads that escape the training range
        are exactly the evidence the detector needs.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.signal_count:
            raise ValueError(
                f"expected {self.signal_count} signals, got {values.shape[-1]}"
            )
        out = np.zeros_like(values)
        out[..., self._ok] = (values[..., self._ok] - self._ok_mins) \
            / self._ok_spans
        return out


@dataclass(frozen=True)
class Trace:
    """Ordered, labeled samples of a single CAN message ID."""

    schema: MessageSchema
    timestamps: np.ndarray
    signals: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        ts = _readonly(np.asarray(self.timestamps, dtype=np.float64))
        sig = _readonly(np.asarray(self.signals, dtype=np.float64))
        lab = _readonly(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "labels", lab)
        n = len(ts)
        if sig.shape != (n, self.schema.signal_count):
            raise ValueError(
                f"signals must have shape ({n}, {self.schema.signal_count}), got {sig.shape}"
            )
        if lab.shape != (n,):
            raise ValueError("labels must be one per record")
        if not np.isin(lab, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(ts).all():
            raise ValueError("timestamps must be finite")
        if n > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.timestamps)


# --------------------------------------------------------------------------
# file io: every CSV table the tools write and read goes through
# `table_text` and `read_table`, a column of cells at a time

# lines `read_table` hands over at once. A block's cells are the reader's
# working memory, about 1 KB a trace line, so a table of any length reads
# in about 16 MB beyond its text and the arrays it fills. Blocks of 2^16
# lines took the hour-long capture's peak to 3.9x the file, near the 4x
# that CI allows, for no gain in time.
_BLOCK_LINES = 1 << 14


def float_cells(values) -> list[str]:
    """Floats as table cells: `repr`, the shortest string that parses
    back to the identical double, so tables round-trip bit-exact."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def int_cells(values) -> list[str]:
    """Integers as table cells."""
    return list(map(str, np.asarray(values).tolist()))


def table_text(header: str | None, columns: Sequence[Sequence[str]],
               provenance: dict | None = None) -> str:
    """A table in the one CSV layout: a '# key: value' line per provenance
    entry, the header (None for a table without one), then one line per
    row, joining the row's cell of each column (all of one length) with
    commas."""
    lines = [f"# {key}: {value}" for key, value in (provenance or {}).items()]
    if header is not None:
        lines.append(header)
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _header(k: int) -> str:
    sigs = ",".join(f"sig_{i + 1}" for i in range(k))
    return f"timestamp,message_id,k,{sigs},label"


def write_trace(trace: Trace, path: str | Path, provenance: dict | None = None) -> None:
    """Write a trace in the documented CSV format, with `provenance` as
    its '# key: value' lines."""
    n, k = trace.signals.shape
    columns = [float_cells(trace.timestamps),
               [f"{trace.schema.message_id:#x}"] * n, [str(k)] * n,
               *map(float_cells, trace.signals.T), int_cells(trace.labels)]
    write_text(path, table_text(_header(k), columns, provenance))


def write_text(path: str | Path, text: str) -> None:
    """Write a text file as UTF-8, whatever the locale."""
    Path(path).write_text(text, encoding="utf-8")


def read_text(path: str | Path) -> str:
    """A text file's contents, decoded as UTF-8 whatever the locale; bytes
    that are not UTF-8 raise ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


class TableBlock(NamedTuple):
    """The rows among up to `_BLOCK_LINES` consecutive lines of a table."""

    comments: list[tuple[int, str, str]]  # (line, key, value) per '# k: v'
    lines: Sequence[int]  # each row's line number
    columns: list[list[str]]  # the rows' cells, one list per column


def _line_blocks(text: str) -> Iterator[tuple[int, str]]:
    """(number of its first line, text) of each run of up to `_BLOCK_LINES`
    lines of `text`; a final line ending starts no further line."""
    stop = len(text) - text.endswith("\n")
    pos, lineno = 0, 1
    width = 80  # characters per line, a guess that each block refines
    while pos <= stop:
        # a guessed end, moved to the _BLOCK_LINES-th line ending after pos
        # (or to stop) one line ending at a time
        end = min(pos + width * _BLOCK_LINES, stop)
        ends = text.count("\n", pos, end)
        for _ in range(ends - _BLOCK_LINES + 1):
            end = text.rfind("\n", pos, end)
        if ends < _BLOCK_LINES:
            end -= 1
            for _ in range(_BLOCK_LINES - ends):
                end = text.find("\n", end + 1, stop)
                if end < 0:
                    end = stop
                    break
        yield lineno, text[pos:end]
        width = (end - pos) // _BLOCK_LINES + 1
        pos, lineno = end + 1, lineno + _BLOCK_LINES


class _RowSplitter:
    """Sorts a table's lines, a block at a time, into blank lines,
    comments, the header and rows."""

    def __init__(self, path: str | Path, header: str | None,
                 n_cols: int) -> None:
        self.path, self.header, self.n_cols = path, header, n_cols
        self.want_header = header is not None

    def skipped(self, lineno: int, line: str,
                comments: list[tuple[int, str, str]]) -> bool:
        """False for a row; True for a blank line, a comment (added to
        `comments` if it is '# key: value') or the header (checked)."""
        if line[:1] == "#":
            key, colon, value = line[1:].partition(":")
            if colon:
                comments.append((lineno, key.strip(), value.strip()))
        elif line and self.want_header:
            if line != self.header:
                raise ValueError(f"{self.path}:{lineno}: bad header, "
                                 f"expected '{self.header}'")
            self.want_header = False
        elif line:
            return False
        return True

    def block(self, first: int, chunk: str) -> TableBlock:
        """The block of the lines in `chunk`, the first of them numbered
        `first`."""
        lines = list(map(str.strip, chunk.split("\n")))
        comments: list[tuple[int, str, str]] = []
        # the provenance and the header open a table, so past them a block
        # is all rows unless it holds a blank line or a '#'
        i = 0
        while i < len(lines) and self.skipped(first + i, lines[i], comments):
            i += 1
        rows, at = lines[i:], range(first + i, first + len(lines))
        joined = ",".join(rows)
        if "" in rows or "#" in joined:
            at = [lineno for lineno, line in zip(at, rows)
                  if not self.skipped(lineno, line, comments)]
            rows = [lines[lineno - first] for lineno in at]
            joined = ",".join(rows)
        n = self.n_cols
        widths = list(map(str.count, rows, itertools.repeat(",")))
        if widths.count(n - 1) != len(widths):
            lineno, w = next((lineno, w) for lineno, w in zip(at, widths)
                             if w != n - 1)
            raise ValueError(
                f"{self.path}:{lineno}: expected {n} columns, got {w + 1}")
        cells = joined.split(",") if rows else []
        return TableBlock(comments, at, [cells[j::n] for j in range(n)])


def read_table(path: str | Path, header: str | None, n_cols: int,
               text: str | None = None) -> Iterator[TableBlock]:
    """The blocks of a `table_text` table at `path` (or in `text`, its
    contents already read), in file order; a block without rows or
    comments is left out. Blank and '#' lines are skipped; the first other
    line must be `header` (unless None) and every later one a row of
    `n_cols` cells. Bytes that are not UTF-8, a bad header, a row of
    another width and no rows at all raise ValueError naming path or
    path:line, each when the reader reaches it."""
    if text is None:
        text = read_text(path)
    splitter = _RowSplitter(path, header, n_cols)
    any_rows = False
    # read_text has turned every line ending into '\n'; splitlines() would
    # also break at form feeds and other separators inside a line
    for block in itertools.starmap(splitter.block, _line_blocks(text)):
        if block.lines or block.comments:
            any_rows = any_rows or bool(block.lines)
            yield block
    if not any_rows:
        raise ValueError(f"{path}: no records")


def convert_block(path: str | Path, block: TableBlock,
                  convert: Callable[[list[list[str]]], tuple]) -> tuple:
    """`convert(columns)` of a block's rows. `convert` raises ValueError
    on any faulty row, with the message a reader of that row alone would
    give; the shortest prefix of the rows that it refuses then holds one
    faulty row, its last, and that row's message is raised naming
    path:line."""
    try:
        return convert(block.columns)
    except ValueError as exc:
        error = exc
    good, bad = 0, len(block.lines)  # row counts it takes and refuses
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            convert([col[:mid] for col in block.columns])
            good = mid
        except ValueError as exc:
            bad, error = mid, exc
    raise ValueError(f"{path}:{block.lines[bad - 1]}: {error}") from None


def _trace_columns(schema: MessageSchema, last: float,
                   columns: list[list[str]]) -> tuple:
    """A block's timestamps, signals and labels, converted a column at a
    time; `last` is the timestamp before the block. As a reader of one
    row would, it parses every column, in the order of a row's cells,
    before it checks the rows, in the order `load_trace` lists."""
    k = schema.signal_count
    stamps, mids, ks, *sigs, labs = columns
    try:
        ts = np.array(list(map(float, stamps)))
        mid_of = {cell: int(cell, 0) for cell in set(mids)}
        k_of = {cell: int(cell) for cell in set(ks)}
        signals = np.array([list(map(float, col)) for col in sigs]).T
        label_of = {cell: int(cell) for cell in set(labs)}
    except ValueError as exc:
        raise ValueError(f"malformed row: {exc}") from None
    for mid in mid_of.values():
        if mid != schema.message_id:
            raise ValueError(f"message_id {mid:#x} does not match schema "
                             f"{schema.message_id:#x}")
    for row_k in k_of.values():
        if row_k != k:
            raise ValueError(f"k={row_k} does not match schema k={k}")
    for label in label_of.values():
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
    bad = ~np.isfinite(ts)
    if bad.any():
        raise ValueError(f"timestamp {float(ts[bad][0])} is not finite")
    if len(ts) and (ts[0] < last or (ts[1:] < ts[:-1]).any()):
        raise ValueError("timestamps must be non-decreasing")
    labels = np.array(list(map(label_of.__getitem__, labs)), dtype=np.int64)
    return ts, signals, labels


def load_trace(path: str | Path, schema: MessageSchema) -> Trace:
    """Parse a trace CSV, validating it against the schema.

    Besides what `read_table` rejects, rows are rejected (with an error
    naming path:line) on: non-numeric values, a message_id not matching
    the schema, a signal count not equal to the schema's, labels outside
    {0, 1}, a NaN or infinite timestamp, or decreasing timestamps. Each
    block is converted a column at a time by `convert_block`, which names
    the first faulty row of a block that fails.
    """
    parts = []
    last = -math.inf
    for block in read_table(path, _header(schema.signal_count),
                            schema.signal_count + 4):
        part = convert_block(
            path, block, functools.partial(_trace_columns, schema, last))
        parts.append(part)
        if len(part[0]):
            last = part[0][-1]
    timestamps, signals, labels = (np.concatenate(c) for c in zip(*parts))
    return Trace(schema=schema, timestamps=timestamps, signals=signals,
                 labels=labels)


def save_scaling(params: ScalingParams, path: str | Path) -> None:
    """Write the scaling sidecar: a 'signal_name,min,max' row per signal."""
    columns = [params.signal_names, float_cells(params.mins),
               float_cells(params.maxs)]
    write_text(path, table_text(None, columns))


def _bounds(columns: list[list[str]]) -> tuple:
    """A sidecar block's names, mins and maxs."""
    names, lo, hi = columns
    try:
        return names, list(map(float, lo)), list(map(float, hi))
    except ValueError as exc:
        raise ValueError(f"malformed row: {exc}") from None


def load_scaling(path: str | Path) -> ScalingParams:
    """Read the scaling sidecar; a malformed bound or one ScalingParams
    refuses raises ValueError naming path:line or path."""
    names: list[str] = []
    mins: list[float] = []
    maxs: list[float] = []
    for block in read_table(path, None, 3):
        name, lo, hi = convert_block(path, block, _bounds)
        names += name
        mins += lo
        maxs += hi
    try:
        return ScalingParams(np.array(mins), np.array(maxs), tuple(names))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# transformations


def fit_and_scale(trace: Trace) -> tuple[Trace, ScalingParams]:
    """Fit per-signal min-max scaling on the trace and apply it.

    Degenerate signals (min == max) carry no information and scale to 0.
    The returned params are meant to be reused on validation/test traces.
    """
    if len(trace) == 0:
        raise ValueError("cannot fit scaling on an empty trace")
    params = ScalingParams(
        mins=trace.signals.min(axis=0),
        maxs=trace.signals.max(axis=0),
        signal_names=trace.schema.signal_names,
    )
    return apply_scaling(trace, params), params


def apply_scaling(trace: Trace, params: ScalingParams) -> Trace:
    """Scale a trace with previously fitted params. Out-of-range values are
    not clipped; they are the detector's evidence."""
    if params.signal_count != trace.schema.signal_count:
        raise ValueError(
            f"scaling params carry {params.signal_count} signals, "
            f"trace has {trace.schema.signal_count}"
        )
    return dataclasses.replace(trace, signals=params.apply(trace.signals))


def split_train_val(trace: Trace, ratio: float) -> tuple[Trace, Trace]:
    """Chronological split: first floor(ratio*n) records train, rest val.

    No shuffling; shuffling would destroy the temporal structure the
    predictor is meant to learn.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    n = len(trace)
    if n < 2:
        raise ValueError("need at least 2 records to split")
    cut = math.floor(ratio * n)
    if cut == 0 or cut == n:
        raise ValueError(f"split with ratio {ratio} leaves an empty side")
    head = dataclasses.replace(trace, timestamps=trace.timestamps[:cut],
                               signals=trace.signals[:cut],
                               labels=trace.labels[:cut])
    tail = dataclasses.replace(trace, timestamps=trace.timestamps[cut:],
                               signals=trace.signals[cut:],
                               labels=trace.labels[cut:])
    return head, tail


def window_arrays(trace: Trace, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling windows as stacked arrays: inputs (n-L, L, k), targets (n-L, k).

    Window i covers records [i, i+L) and its target is record i+L, so
    consecutive windows overlap in L-1 records. Timestamps are not part of
    the window; only signal values feed the model.
    """
    n = len(trace)
    if length < 1:
        raise ValueError("window length must be positive")
    if n < length + 1:
        raise ValueError(
            f"trace of length {n} is too short for windows of length {length}"
        )
    inputs = np.lib.stride_tricks.sliding_window_view(
        trace.signals, (length, trace.schema.signal_count)
    )[:-1, 0]
    targets = trace.signals[length:]
    return inputs, targets

