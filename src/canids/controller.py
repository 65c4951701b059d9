"""Online deployment pipeline: per-frame rate check, streamed prediction,
and disposition.

Every incoming frame passes a two-step check. Step one compares its
inter-arrival time against the message's nominal period: arrivals faster
than (1 - tol) * P are dropped outright (flood defense) and never reach
the model or its history. Step two predicts the frame's signals from the
last L accepted rows and classifies the deviation; anomalous frames are
dropped and the prediction is cached in their place, so one bad frame
cannot poison the model's own inputs. Slow arrivals (gap above
(1 + tol) * P) are legitimate frames whose preceding gap is suspicious;
they proceed through step two carrying a rate alarm, and the gap itself is
the dropping-attack indicator.

A frame stamped earlier than the latest arrival seen (a backward time
jump, from a reordered or faulty capture) has a negative gap: it is
too_fast and dropped as a rate violation, and the anchor stays at the
latest time seen, so one late-stamped frame cannot open a gap that lets a
flood through. A frame whose timestamp is NaN or infinite has no gap at
all: it is too_fast and dropped as a rate violation, and the anchor stays
where it was (unset, if it is the first frame), so one corrupt stamp can
neither wave a flood frame through nor push every later frame out.

Until L accepted frames have been pushed the stream is in warm-up: frames
are rate-checked and pushed but delivered unscored.

The history is a `predictor.StreamPredictor`, which holds the L windows
in flight and advances all of them by one batched step per pushed row,
instead of running the whole window again for every frame. Each history
state gets one prediction: the first frame after it that passes the rate
check asks for it, is scored against it and pushes its value or a
substitute, which ends the state; a rate-dropped frame neither predicts
nor pushes. The steps run when the prediction is asked for, not at the
push: stepping at once would spend a step no frame uses at the end of
every stream and save nothing in a closed loop, whose caller waits for
either, and a failing forward raises at the frame that reads it.

With nothing dropped, the online scores equal offline detection's to
float64 rounding, not bit for bit: the stream computes each window's
numbers bit for bit as a batch-1 forward would, which takes numpy's
matrix-vector BLAS path, and offline blocks the matrix-matrix one.

A frame whose scaled payload is not all finite (a NaN or infinite signal)
cannot be scored and must never reach the history: it is dropped as
anomalous with no score, and after warm-up the configured substitution
is pushed in its place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import OcsvmModel, Scorer, StaticThreshold
from .predictor import PredictorModel, StreamPredictor
from .traces import ScalingParams, float_cells, table_text

DISPOSITIONS = ("Delivered", "DroppedAnomalous", "DroppedRateViolation")


# the rate gate's default tolerance: a gap within 20% of the period is on time
DEFAULT_TOLERANCE = 0.2


def _check_tolerance(tolerance_fraction: float) -> None:
    """The rate gate's tolerance rule. Outside (0, 1) the gate means nothing:
    from 1 up no gap is too fast, at 0 and below every gap off the exact
    period is flagged, and NaN flags none."""
    if not 0.0 < tolerance_fraction < 1.0:
        raise ValueError("tolerance_fraction must lie in (0, 1)")


def _check_period(expected_period_ms: float) -> None:
    """The rate gate's period rule. A NaN period flags no gap, an infinite
    one flags every gap too fast, and one of 0 or below flags every
    positive gap too slow."""
    if not 0.0 < expected_period_ms < math.inf:
        raise ValueError("expected_period_ms must be finite and positive")


@dataclass
class RateCheckerState:
    """Tracks inter-arrival times against the expected period.

    last_timestamp is the latest arrival time seen. It advances on every
    frame, accepted or not: during a flood the bus is busy regardless of
    what we discard, and anchoring on the last accepted frame would let
    late-in-gap flood frames look legitimate. It never moves back: a frame
    stamped before it leaves it unchanged. A non-finite timestamp never
    moves it either.
    """

    expected_period_ms: float
    tolerance_fraction: float = DEFAULT_TOLERANCE
    last_timestamp: float | None = None

    def __post_init__(self) -> None:
        _check_period(self.expected_period_ms)
        _check_tolerance(self.tolerance_fraction)


def rate_check(state: RateCheckerState, timestamp: float) -> str:
    """Classify one arrival: 'ok', 'too_fast', or 'too_slow'.

    The first frame ever seen is 'ok' (no gap exists yet). too_slow doubles
    as the dropping-attack signal. A timestamp earlier than the latest one
    seen, or one that is NaN or infinite, is 'too_fast' and leaves
    state.last_timestamp where it is; a non-finite first frame leaves it
    None.
    """
    if not math.isfinite(timestamp):
        return "too_fast"
    if state.last_timestamp is None:
        state.last_timestamp = timestamp
        return "ok"
    dt = timestamp - state.last_timestamp
    if dt < 0:
        return "too_fast"
    state.last_timestamp = timestamp
    period_s = state.expected_period_ms / 1000.0
    if dt < (1.0 - state.tolerance_fraction) * period_s:
        return "too_fast"
    if dt > (1.0 + state.tolerance_fraction) * period_s:
        return "too_slow"
    return "ok"


def rate_flags(timestamps: np.ndarray, expected_period_ms: float,
               tolerance_fraction: float = DEFAULT_TOLERANCE
               ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized offline rate check over a whole trace.

    Returns (too_fast, too_slow) 0/1 arrays; the first record is 'ok'.
    A NaN or infinite timestamp raises ValueError naming its index, as
    decreasing timestamps do: every comparison with NaN is False, so it
    would pass the rate check unflagged.
    """
    _check_period(expected_period_ms)
    _check_tolerance(tolerance_fraction)
    ts = np.asarray(timestamps, dtype=np.float64)
    bad = ~np.isfinite(ts)
    if bad.any():
        raise ValueError(f"timestamp {int(np.argmax(bad))} is not finite")
    if len(ts) and np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be non-decreasing")
    period_s = expected_period_ms / 1000.0
    fast = np.zeros(len(ts), dtype=np.int64)
    slow = np.zeros(len(ts), dtype=np.int64)
    if len(ts) > 1:
        dt = np.diff(ts)
        fast[1:] = (dt < (1.0 - tolerance_fraction) * period_s).astype(np.int64)
        slow[1:] = (dt > (1.0 + tolerance_fraction) * period_s).astype(np.int64)
    return fast, slow


@dataclass(frozen=True)
class FrameDisposition:
    index: int
    timestamp: float
    disposition: str  # one of DISPOSITIONS
    score: float | None  # None for unscored frames (warm-up, rate drops,
                         # non-finite payloads)
    rate_flag: str  # ok / too_fast / too_slow
    warmup: bool

    def __post_init__(self) -> None:
        if self.disposition not in DISPOSITIONS:
            raise ValueError(f"unknown disposition {self.disposition!r}")


@dataclass(frozen=True)
class OnlineConfig:
    tolerance_fraction: float = DEFAULT_TOLERANCE
    substitution: str = "prediction"  # or "freeze": repeat last normal value

    def __post_init__(self) -> None:
        _check_tolerance(self.tolerance_fraction)
        if self.substitution not in ("prediction", "freeze"):
            raise ValueError("substitution must be 'prediction' or 'freeze'")


def run_online(stream, model: PredictorModel,
               detector: OcsvmModel | StaticThreshold, variant: str,
               scaling: ScalingParams, expected_period_ms: float,
               config: OnlineConfig | None = None) -> list[FrameDisposition]:
    """Process (timestamp, signals) frames through the two-step pipeline.

    Each frame of `stream` is its arrival time in seconds and its raw
    physical signal values; scaling is applied here. Dispositions partition
    the stream: every frame gets exactly one. Times need not be ordered or
    finite: a frame stamped before the latest time seen, or with a NaN or
    infinite time, is DroppedRateViolation.

    After warm-up, each frame that passes the rate check gets one
    prediction from the last L pushed rows. That prediction is scored
    against the frame, and it is what the "prediction" substitution pushes
    when the frame is dropped.

    A frame that passes the rate check but whose scaled payload holds a NaN
    or an infinity is DroppedAnomalous with score None and is never pushed.
    During warm-up nothing is pushed in its place; after warm-up the
    configured substitution (the model's prediction, or the last pushed
    row) is pushed, as for any anomalous drop.
    """
    config = config or OnlineConfig()
    if scaling.signal_count != model.k:
        raise ValueError(
            f"scaling carries {scaling.signal_count} signals, model expects "
            f"{model.k}")
    scorer = Scorer(detector, variant, model.k)
    state = RateCheckerState(expected_period_ms=expected_period_ms,
                             tolerance_fraction=config.tolerance_fraction)
    predictor = StreamPredictor(model)
    out: list[FrameDisposition] = []
    for i, (ts, raw) in enumerate(stream):
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != (model.k,):
            raise ValueError(
                f"frame {i} carries {raw.shape[0] if raw.ndim else 0} "
                f"signals, model expects {model.k}")
        flag = rate_check(state, ts)
        if flag == "too_fast":
            out.append(FrameDisposition(index=i, timestamp=ts,
                                        disposition="DroppedRateViolation",
                                        score=None, rate_flag=flag,
                                        warmup=not predictor.ready))
            continue
        scaled = scaling.apply(raw)
        finite = bool(np.isfinite(scaled).all())
        if not predictor.ready:
            if finite:
                predictor.push(scaled)
            out.append(FrameDisposition(
                index=i, timestamp=ts,
                disposition="Delivered" if finite else "DroppedAnomalous",
                score=None, rate_flag=flag, warmup=True))
            continue
        pred = predictor.predict()
        score = (float(scorer.scores(pred[None], scaled[None])[0]) if finite
                 else None)
        if score is None or score < 0.0:
            predictor.push(pred if config.substitution == "prediction"
                           else predictor.last)
            out.append(FrameDisposition(index=i, timestamp=ts,
                                        disposition="DroppedAnomalous",
                                        score=score, rate_flag=flag,
                                        warmup=False))
        else:
            predictor.push(scaled)
            out.append(FrameDisposition(index=i, timestamp=ts,
                                        disposition="Delivered", score=score,
                                        rate_flag=flag, warmup=False))
    return out


def dispositions_csv(dispositions: list[FrameDisposition],
                     provenance: dict | None = None) -> str:
    """The disposition log in its documented CSV form; an unscored frame
    has an empty score cell."""
    columns = [float_cells([d.timestamp for d in dispositions]),
               [d.disposition for d in dispositions],
               ["" if d.score is None else repr(float(d.score))
                for d in dispositions]]
    return table_text("timestamp,disposition,score", columns, provenance)
