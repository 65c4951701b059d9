"""CAN message trace data model.

A trace is the time-ordered log of one CAN message ID: per record a
timestamp, the signal values carried in the payload, and a 0/1 anomaly
label. Traces are stored column-wise as read-only numpy arrays and are
immutable after construction, so they can be shared freely between
workers. All transformations return new Trace objects.

Trace file format (one file per message ID)::

    timestamp,message_id,k,sig_1,...,sig_k,label

Floats are rendered with `repr`, the shortest string that parses back to
the identical double; the message ID is in hex.
Lines starting with '#' are provenance comments and are skipped.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass
from pathlib import Path

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
    as a float; a bool takes only a bool; `X | None` also takes null; a
    `tuple[X, ...]` takes a list of X, returned as a tuple; a dataclass
    takes an object (see `from_json`); `np.ndarray` takes an array, as a
    model file's blocks are. A mismatch raises ValueError naming `where`.
    """
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
        if not self.nominal_period_ms > 0:
            raise ValueError("nominal_period_ms must be positive")
        if not self.signal_names:
            names = tuple(f"sig_{i + 1}" for i in range(self.signal_count))
            object.__setattr__(self, "signal_names", names)
        else:
            object.__setattr__(self, "signal_names", tuple(self.signal_names))
        if len(self.signal_names) != self.signal_count:
            raise ValueError(
                f"expected {self.signal_count} signal names, got {len(self.signal_names)}"
            )
        if len(set(self.signal_names)) != self.signal_count:
            raise ValueError("signal names must be distinct")

    @property
    def nominal_period_s(self) -> float:
        return self.nominal_period_ms / 1000.0


@dataclass(frozen=True)
class ScalingParams:
    """Per-signal (min, max) pairs for 0-1 scaling; every bound is finite."""

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
        if not self.signal_names:
            names = tuple(f"sig_{i + 1}" for i in range(len(mins)))
            object.__setattr__(self, "signal_names", names)
        bad = ~(np.isfinite(mins) & np.isfinite(maxs))
        if bad.any():
            names = ", ".join(n for n, b in zip(self.signal_names, bad) if b)
            raise ValueError(f"non-finite min or max for signal(s) {names}")

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
        span = self.maxs - self.mins
        out = np.zeros_like(values)
        ok = span > 0
        out[..., ok] = (values[..., ok] - self.mins[ok]) / span[ok]
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
        if n > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    def replace_data(
        self,
        timestamps: np.ndarray | None = None,
        signals: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> "Trace":
        return Trace(
            schema=self.schema,
            timestamps=self.timestamps if timestamps is None else timestamps,
            signals=self.signals if signals is None else signals,
            labels=self.labels if labels is None else labels,
        )


# --------------------------------------------------------------------------
# file io


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that parses back to
    # the identical double, so trace files round-trip bit-exact
    return repr(float(x))


def _header(k: int) -> str:
    sigs = ",".join(f"sig_{i + 1}" for i in range(k))
    return f"timestamp,message_id,k,{sigs},label"


def write_trace(trace: Trace, path: str | Path, provenance: dict | None = None) -> None:
    """Write a trace in the documented CSV format.

    Provenance entries become '# key: value' comment lines above the header.
    """
    k = trace.schema.signal_count
    lines = []
    for key, value in (provenance or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(_header(k))
    mid = f"{trace.schema.message_id:#x}"
    for i in range(len(trace)):
        sigs = ",".join(_fmt(v) for v in trace.signals[i])
        lines.append(
            f"{_fmt(trace.timestamps[i])},{mid},{k},{sigs},{int(trace.labels[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path: str | Path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ValueError
    naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def load_trace(path: str | Path, schema: MessageSchema) -> Trace:
    """Parse a trace CSV, validating it against the schema.

    Rows are rejected (with an error naming path:line) on: wrong column
    count, non-numeric values, a message_id not matching the schema, a
    signal count not equal to the schema's, labels outside {0, 1}, a NaN
    or infinite timestamp, or decreasing timestamps.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    k = schema.signal_count
    expected_cols = k + 4
    timestamps: list[float] = []
    signals: list[list[float]] = []
    labels: list[int] = []
    header_seen = False
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != _header(k):
                raise ValueError(
                    f"{path}:{lineno}: bad header, expected '{_header(k)}'"
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != expected_cols:
            raise ValueError(
                f"{path}:{lineno}: expected {expected_cols} columns, got {len(fields)}"
            )
        try:
            ts = float(fields[0])
            mid = int(fields[1], 0)
            row_k = int(fields[2])
            sigs = [float(f) for f in fields[3 : 3 + k]]
            label = int(fields[3 + k])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if mid != schema.message_id:
            raise ValueError(
                f"{path}:{lineno}: message_id {mid:#x} does not match schema "
                f"{schema.message_id:#x}"
            )
        if row_k != k:
            raise ValueError(f"{path}:{lineno}: k={row_k} does not match schema k={k}")
        if label not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
        if not math.isfinite(ts):
            raise ValueError(f"{path}:{lineno}: timestamp {ts} is not finite")
        if timestamps and ts < timestamps[-1]:
            raise ValueError(f"{path}:{lineno}: timestamps must be non-decreasing")
        timestamps.append(ts)
        signals.append(sigs)
        labels.append(label)
    if not timestamps:
        raise ValueError(f"{path}: no records")
    return Trace(
        schema=schema,
        timestamps=np.array(timestamps),
        signals=np.array(signals),
        labels=np.array(labels),
    )


def save_scaling(params: ScalingParams, path: str | Path) -> None:
    """Write the scaling sidecar: one 'signal_name,min,max' line per signal."""
    lines = [
        f"{name},{_fmt(lo)},{_fmt(hi)}"
        for name, lo, hi in zip(params.signal_names, params.mins, params.maxs)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_scaling(path: str | Path) -> ScalingParams:
    path = Path(path)
    names, mins, maxs = [], [], []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'signal_name,min,max'")
        names.append(fields[0])
        mins.append(float(fields[1]))
        maxs.append(float(fields[2]))
    if not names:
        raise ValueError(f"{path}: no scaling entries")
    return ScalingParams(np.array(mins), np.array(maxs), tuple(names))


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
    return trace.replace_data(signals=params.apply(trace.signals))


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
    head = trace.replace_data(
        timestamps=trace.timestamps[:cut],
        signals=trace.signals[:cut],
        labels=trace.labels[:cut],
    )
    tail = trace.replace_data(
        timestamps=trace.timestamps[cut:],
        signals=trace.signals[cut:],
        labels=trace.labels[cut:],
    )
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

