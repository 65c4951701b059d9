"""Synthetic CAN traffic generation and attack injection.

Normal traffic is produced per signal from a small family of generators
(sine, ramp-reset, random-walk, step-hold) at exactly the schema's nominal
period, standing in for recorded vehicle data. Five attacks can then be
injected: Constant, Continuous, Replay, Dropping, DDoS. Injection is
label-sound: a record carries label 1 exactly when an attack created it or
changed its payload, which is checkable by diffing against the clean trace.

Dropping removes records, so its ground truth cannot live in labels; the
attack manifest sidecar records every injected attack's kind, interval and
parameters for evaluation-time attribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .traces import MessageSchema, Trace, json_value, read_text

SIGNAL_KINDS = ("sine", "ramp-reset", "random-walk", "step-hold")
ATTACK_KINDS = ("Constant", "Continuous", "Replay", "Dropping", "DDoS")
PAYLOAD_MODES = ("repeat-last", "random")

# timestamps closer than this are the same bus slot, unless float64
# spacing at their magnitude is coarser (see `_ts_tol`)
_TS_EPS = 1e-9


def _ts_tol(*times: float) -> float:
    """Slot tolerance for comparing timestamps near `times`: `_TS_EPS`, or
    64 units in the last place of the largest of them where that is wider.
    At Unix-epoch times (about 1.7e9 s) one unit is 2.4e-7 s, so an
    absolute 1e-9 would call two roundings of the same slot different; 64
    units there is 1.5e-5 s, far below any bus period. Below 2**17 s
    (about 36 hours) the tolerance is `_TS_EPS` itself."""
    return max(_TS_EPS, 64 * math.ulp(max(abs(t) for t in times)))


@dataclass(frozen=True)
class SignalGenSpec:
    """Generator for one signal, bounded to the physical range [lo, hi].

    kind-specific fields:
      sine        amplitude, period_s, phase, center
      ramp-reset  period_s (rise lo -> hi, then reset)
      random-walk step_std (gaussian steps, reflected at the bounds)
      step-hold   hold_s (uniform redraw in [lo, hi] every hold_s seconds)

    noise_std adds white gaussian noise on top; values are clipped to
    [lo, hi] afterwards, so the declared range always holds.
    """

    kind: str
    lo: float
    hi: float
    noise_std: float = 0.0
    amplitude: float | None = None
    period_s: float | None = None
    phase: float = 0.0
    center: float | None = None
    step_std: float | None = None
    hold_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError("signal range requires lo < hi")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.center is None:
            object.__setattr__(self, "center", 0.5 * (self.lo + self.hi))
        if self.kind == "sine":
            if self.amplitude is None or self.period_s is None:
                raise ValueError("sine requires amplitude and period_s")
            if self.period_s <= 0:
                raise ValueError("sine period_s must be positive")
        elif self.kind == "ramp-reset":
            if self.period_s is None or self.period_s <= 0:
                raise ValueError("ramp-reset requires positive period_s")
        elif self.kind == "random-walk":
            if self.step_std is None or self.step_std < 0:
                raise ValueError("random-walk requires step_std >= 0")
        elif self.kind == "step-hold":
            if self.hold_s is None or self.hold_s <= 0:
                raise ValueError("step-hold requires positive hold_s")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "lo": self.lo, "hi": self.hi}
        for key in ("noise_std", "amplitude", "period_s", "phase", "center",
                    "step_std", "hold_s"):
            v = getattr(self, key)
            if v is not None and not (key in ("noise_std", "phase") and v == 0.0):
                d[key] = v
        return d


def _walk(rng: np.random.Generator, n: int, start: float, step_std: float,
          lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    steps = rng.normal(0.0, step_std, size=n - 1) if n > 1 else np.empty(0)
    out = np.empty(n)
    v = start
    out[0] = v
    for i, s in enumerate(steps):
        v += s
        # reflect back into [lo, hi]
        r = math.fmod(v - lo, 2.0 * span)
        if r < 0.0:
            r += 2.0 * span
        v = lo + (span - abs(r - span))
        out[i + 1] = v
    return out


def _signal_values(spec: SignalGenSpec, t: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "sine":
        vals = spec.center + spec.amplitude * np.sin(
            2.0 * np.pi * t / spec.period_s + spec.phase)
    elif spec.kind == "ramp-reset":
        frac = np.mod(t / spec.period_s, 1.0)
        vals = spec.lo + (spec.hi - spec.lo) * frac
    elif spec.kind == "random-walk":
        vals = _walk(rng, len(t), spec.center, spec.step_std, spec.lo, spec.hi)
    else:  # step-hold
        seg = np.floor(t / spec.hold_s).astype(np.int64)
        levels = rng.uniform(spec.lo, spec.hi, size=int(seg[-1]) + 1 if len(seg) else 0)
        vals = levels[seg]
    if spec.noise_std > 0:
        vals = vals + rng.normal(0.0, spec.noise_std, size=len(t))
    return np.clip(vals, spec.lo, spec.hi)


def generate_normal(schema: MessageSchema, gens: list[SignalGenSpec],
                    duration: float, seed: int) -> Trace:
    """Generate a clean trace: one record per nominal period, labels all 0.

    Deterministic for a given seed; each signal draws from its own child
    RNG stream, so adding a signal never perturbs the others.
    """
    if len(gens) != schema.signal_count:
        raise ValueError(
            f"need {schema.signal_count} signal specs, got {len(gens)}")
    period = schema.nominal_period_s
    n = int(math.floor(duration / period + _TS_EPS))
    if n < 1:
        raise ValueError(
            f"duration {duration}s is shorter than one period {period}s")
    t = np.arange(n) * period
    streams = np.random.SeedSequence(seed).spawn(len(gens))
    signals = np.column_stack([
        _signal_values(spec, t, np.random.default_rng(stream))
        for spec, stream in zip(gens, streams)
    ])
    return Trace(schema=schema, timestamps=t, signals=signals,
                 labels=np.zeros(n, dtype=np.int64))


# --------------------------------------------------------------------------
# attacks


@dataclass(frozen=True)
class AttackSpec:
    """One attack instance over the half-open interval [t_start, t_end).

    kind-specific fields:
      Constant    target_signal, value (overwrite to value)
      Continuous  target_signal, increment, target (drift from the original
                  value in `increment` steps until `target`, then hold)
      Replay      source_start (equal-length source interval that must end
                  at or before t_start; payloads copied record-for-record)
      Dropping    no extra fields (records removed; ground truth is this
                  interval, carried by the manifest)
      DDoS        multiplier, payload_mode; floods the interval so arrivals
                  land every nominal_period / multiplier
    """

    kind: str
    t_start: float
    t_end: float
    target_signal: int | None = None
    value: float | None = None
    increment: float | None = None
    target: float | None = None
    source_start: float | None = None
    multiplier: int | None = None
    payload_mode: str = "repeat-last"

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not self.t_start < self.t_end:
            raise ValueError("attack interval requires t_start < t_end")
        if self.kind in ("Constant", "Continuous"):
            if self.target_signal is None or self.target_signal < 0:
                raise ValueError(f"{self.kind} requires target_signal >= 0")
        if self.kind == "Constant" and self.value is None:
            raise ValueError("Constant requires value")
        if self.kind == "Continuous":
            if self.increment is None or self.target is None:
                raise ValueError("Continuous requires increment and target")
        if self.kind == "Replay":
            if self.source_start is None:
                raise ValueError("Replay requires source_start")
            src_end = self.source_start + (self.t_end - self.t_start)
            if src_end > self.t_start + _ts_tol(src_end, self.t_start):
                raise ValueError(
                    "Replay source interval must end at or before t_start")
        if self.kind == "DDoS":
            if self.multiplier is None or self.multiplier < 2:
                raise ValueError("DDoS requires multiplier >= 2")
            if self.payload_mode not in PAYLOAD_MODES:
                raise ValueError(
                    f"payload_mode must be one of {PAYLOAD_MODES}")

    @property
    def source_end(self) -> float:
        if self.source_start is None:
            raise ValueError("not a Replay spec")
        return self.source_start + (self.t_end - self.t_start)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "t_start": self.t_start, "t_end": self.t_end}
        for key in ("target_signal", "value", "increment", "target",
                    "source_start", "multiplier"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        if self.kind == "DDoS":
            d["payload_mode"] = self.payload_mode
        return d


def _interval_mask(ts: np.ndarray, t_start: float, t_end: float) -> np.ndarray:
    tol = _ts_tol(t_start, t_end)
    return (ts >= t_start - tol) & (ts < t_end - tol)


def _check_interval(trace: Trace, spec: AttackSpec) -> None:
    t0 = float(trace.timestamps[0])
    horizon = float(trace.timestamps[-1]) + trace.schema.nominal_period_s
    lo = min(spec.t_start,
             spec.source_start if spec.kind == "Replay" else spec.t_start)
    tol = _ts_tol(t0, horizon)
    if lo < t0 - tol or spec.t_end > horizon + tol:
        raise ValueError(
            f"attack interval [{spec.t_start}, {spec.t_end}) outside trace "
            f"span [{t0}, {horizon})")
    idx = np.flatnonzero(_interval_mask(trace.timestamps, spec.t_start, spec.t_end))
    if np.any(trace.labels[idx] == 1):
        raise ValueError(
            "attack interval overlaps records already marked anomalous")


def _labels_from_diff(labels: np.ndarray, before: np.ndarray,
                      after: np.ndarray) -> np.ndarray:
    changed = np.any(before != after, axis=1)
    return np.where(changed, 1, labels).astype(np.int64)


def inject_attack(trace: Trace, spec: AttackSpec, seed: int = 0) -> Trace:
    """Apply one attack; all records outside its interval are untouched."""
    _check_interval(trace, spec)
    ts = trace.timestamps
    mask = _interval_mask(ts, spec.t_start, spec.t_end)
    idx = np.flatnonzero(mask)

    if spec.kind == "Constant":
        sig = np.array(trace.signals)
        sig[idx, spec.target_signal] = spec.value
        labels = _labels_from_diff(trace.labels, trace.signals, sig)
        return trace.replace_data(signals=sig, labels=labels)

    if spec.kind == "Continuous":
        if len(idx) == 0:
            return trace
        sig = np.array(trace.signals)
        s = float(sig[idx[0], spec.target_signal])
        delta, v = spec.increment, spec.target
        if delta == 0.0 and v != s:
            raise ValueError("Continuous increment 0 cannot reach target")
        if delta != 0.0 and (v - s) * delta < 0:
            raise ValueError(
                f"Continuous target {v} unreachable from start {s} with "
                f"increment {delta}")
        ramp = s + delta * np.arange(len(idx))
        ramp = np.minimum(ramp, v) if delta >= 0 else np.maximum(ramp, v)
        sig[idx, spec.target_signal] = ramp
        labels = _labels_from_diff(trace.labels, trace.signals, sig)
        return trace.replace_data(signals=sig, labels=labels)

    if spec.kind == "Replay":
        src_idx = np.flatnonzero(
            _interval_mask(ts, spec.source_start, spec.source_end))
        if len(src_idx) < len(idx):
            raise ValueError(
                f"replay source holds {len(src_idx)} records but target "
                f"holds {len(idx)}")
        sig = np.array(trace.signals)
        sig[idx] = trace.signals[src_idx[: len(idx)]]
        labels = _labels_from_diff(trace.labels, trace.signals, sig)
        return trace.replace_data(signals=sig, labels=labels)

    if spec.kind == "Dropping":
        keep = ~mask
        return trace.replace_data(timestamps=ts[keep],
                                  signals=trace.signals[keep],
                                  labels=trace.labels[keep])

    # DDoS: flood slots every period/multiplier, anchored on the first
    # legitimate record in the interval; slots colliding with an existing
    # record are skipped, so an aligned interval ends up with multiplier
    # times the nominal record count.
    period = trace.schema.nominal_period_s
    step = period / spec.multiplier
    anchor = float(ts[idx[0]]) if len(idx) else spec.t_start
    tol = _ts_tol(anchor, spec.t_end)
    # one slot past the last whole step; the filter below decides the end
    n_slots = int(math.floor((spec.t_end - anchor) / step)) + 1
    slots = anchor + step * np.arange(n_slots)
    slots = slots[slots < spec.t_end - tol]
    near = np.searchsorted(ts, slots)
    collides = np.zeros(len(slots), dtype=bool)
    for side in (near - 1, near):
        ok = (side >= 0) & (side < len(ts))
        collides[ok] |= np.abs(ts[side[ok]] - slots[ok]) < tol
    flood_ts = slots[~collides]
    if len(flood_ts) == 0:
        return trace
    prev = np.clip(np.searchsorted(ts, flood_ts, side="right") - 1, 0, None)
    if spec.payload_mode == "repeat-last":
        flood_sig = trace.signals[prev]
    else:
        rng = np.random.default_rng(seed)
        lo = trace.signals.min(axis=0)
        hi = trace.signals.max(axis=0)
        flood_sig = rng.uniform(lo, hi,
                                size=(len(flood_ts), trace.schema.signal_count))
    order = np.searchsorted(ts, flood_ts, side="right")
    merged_ts = np.insert(ts, order, flood_ts)
    merged_sig = np.insert(np.array(trace.signals), order, flood_sig, axis=0)
    merged_lab = np.insert(np.array(trace.labels), order,
                           np.ones(len(flood_ts), dtype=np.int64))
    return trace.replace_data(timestamps=merged_ts, signals=merged_sig,
                              labels=merged_lab)


def inject_suite(trace: Trace, specs: list[AttackSpec], seed: int = 0) -> Trace:
    """Compose attacks left to right, one child seed per attack."""
    streams = np.random.SeedSequence(seed).spawn(max(len(specs), 1))
    out = trace
    for spec, stream in zip(specs, streams):
        out = inject_attack(out, spec, seed=int(stream.generate_state(1)[0]))
    return out


# --------------------------------------------------------------------------
# manifest sidecar

_MANIFEST_VERSION = 1


def save_manifest(specs: list[AttackSpec], path: str | Path,
                  message_id: int, extra: dict | None = None) -> None:
    doc = {
        "format": "attack-manifest",
        "version": _MANIFEST_VERSION,
        "message_id": f"{message_id:#x}",
        "attacks": [s.to_dict() for s in specs],
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path: str | Path) -> tuple[int, list[AttackSpec]]:
    """The message ID and attacks of a manifest. Anything but a JSON object
    of this format and version, with a hex-string message_id and a list of
    attack objects, raises ValueError naming the file."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if type(doc) is not dict or doc.get("format") != "attack-manifest":
        raise ValueError(f"{path}: not an attack manifest")
    version = doc.get("version")
    if type(version) is not int or version != _MANIFEST_VERSION:
        raise ValueError(
            f"{path}: manifest version {version!r} unsupported "
            f"(expected {_MANIFEST_VERSION})")
    mid = doc.get("message_id")
    if type(mid) is not str:
        raise ValueError(f"{path}: message_id must be a hex string, "
                         f"got {mid!r}")
    try:
        message_id = int(mid, 0)
    except ValueError:
        raise ValueError(f"{path}: malformed message_id {mid!r}") from None
    specs = json_value(doc.get("attacks"), tuple[AttackSpec, ...],
                       f"{path}: attacks")
    return message_id, list(specs)
