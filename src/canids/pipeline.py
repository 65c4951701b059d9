"""End-to-end orchestration: generate, inject, train, fit detectors,
detect, evaluate.

The command-line front end and the test suites both drive these functions;
the CLI only adds file plumbing. Stage seeds are derived from the base
seed by hashing the stage name, so regenerating one artifact never shifts
the randomness of another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import detector as det
from . import metrics as mx
from . import predictor as pr
from .config import DetectorConfig, ExperimentConfig
from .controller import rate_flags
from .tracegen import AttackSpec, generate_normal, inject_suite
from .traces import (
    ScalingParams,
    Trace,
    _fmt,
    apply_scaling,
    fit_and_scale,
    split_train_val,
    window_arrays,
)


def stage_seed(base_seed: int, stage: str) -> int:
    """Stable per-stage seed: hash of base seed and stage name."""
    digest = hashlib.sha256(f"{base_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


# --------------------------------------------------------------------------
# generation / injection


def gen_trace(cfg: ExperimentConfig, role: str,
              seed: int | None = None, duration: float | None = None) -> Trace:
    """Generate the clean trace for a role ('train' or 'test')."""
    if role not in ("train", "test"):
        raise ValueError("role must be 'train' or 'test'")
    if duration is None:
        duration = (cfg.generation.train_duration_s if role == "train"
                    else cfg.generation.test_duration_s)
    base = cfg.seed if seed is None else seed
    return generate_normal(cfg.schema, list(cfg.signals), duration,
                           seed=stage_seed(base, f"gen-{role}"))


# default suite layout, as fractions of the trace span: five non-overlapping
# intervals, each a tenth of the span, with the replay source taken from the
# clean opening tenth
_SUITE_FRACTIONS = {
    "Constant": (0.10, 0.20),
    "Continuous": (0.25, 0.35),
    "Replay": (0.45, 0.55),
    "Dropping": (0.60, 0.70),
    "DDoS": (0.75, 0.85),
}
_REPLAY_SOURCE_FRACTION = 0.0


def expand_attacks(cfg: ExperimentConfig, trace: Trace) -> list[AttackSpec]:
    """Resolve the config's attack section against a concrete trace."""
    if cfg.attack_list is not None:
        return list(cfg.attack_list)
    suite = cfg.suite
    t0 = float(trace.timestamps[0])
    span = float(trace.timestamps[-1]) + trace.schema.nominal_period_s - t0
    sig = trace.signals[:, suite.target_signal]
    lo, hi = float(sig.min()), float(sig.max())
    rng_span = hi - lo if hi > lo else 1.0

    def iv(kind: str) -> tuple[float, float]:
        f0, f1 = _SUITE_FRACTIONS[kind]
        return t0 + f0 * span, t0 + f1 * span

    c0, c1 = iv("Constant")
    g0, g1 = iv("Continuous")
    r0, r1 = iv("Replay")
    d0, d1 = iv("Dropping")
    f0, f1 = iv("DDoS")
    return [
        AttackSpec(kind="Constant", t_start=c0, t_end=c1,
                   target_signal=suite.target_signal,
                   value=hi + suite.constant_offset * rng_span),
        AttackSpec(kind="Continuous", t_start=g0, t_end=g1,
                   target_signal=suite.target_signal,
                   increment=suite.continuous_increment * rng_span,
                   target=hi + suite.continuous_offset * rng_span),
        AttackSpec(kind="Replay", t_start=r0, t_end=r1,
                   source_start=t0 + _REPLAY_SOURCE_FRACTION * span),
        AttackSpec(kind="Dropping", t_start=d0, t_end=d1),
        AttackSpec(kind="DDoS", t_start=f0, t_end=f1,
                   multiplier=suite.multiplier,
                   payload_mode=suite.payload_mode),
    ]


def inject(cfg: ExperimentConfig, trace: Trace,
           seed: int | None = None) -> tuple[Trace, list[AttackSpec]]:
    specs = expand_attacks(cfg, trace)
    base = cfg.seed if seed is None else seed
    attacked = inject_suite(trace, specs, seed=stage_seed(base, "inject"))
    return attacked, specs


# --------------------------------------------------------------------------
# training


def train_predictor(cfg: ExperimentConfig, trace: Trace,
                    seed: int | None = None
                    ) -> tuple[pr.PredictorModel, ScalingParams, pr.TrainHistory]:
    """Scale the normal trace, split chronologically, fit the predictor."""
    base = cfg.seed if seed is None else seed
    scaled, scaling = fit_and_scale(trace)
    train_part, val_part = split_train_val(scaled, cfg.train_ratio)
    model = pr.build_model(cfg.schema.signal_count, cfg.hyper,
                           seed=stage_seed(base, "model-init"))
    trained, history = pr.train(model, train_part, val_part, cfg.hyper)
    return trained, scaling, history


def _subsample(X: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic even-stride subsample down to at most cap rows."""
    if len(X) <= cap:
        return X
    idx = np.unique(np.linspace(0, len(X) - 1, cap).astype(np.int64))
    return X[idx]


def _scaled_windows(trace: Trace, scaling: ScalingParams,
                    length: int) -> tuple[np.ndarray, np.ndarray]:
    """window_arrays over the scaled trace. A NaN or infinite payload would
    poison every window it enters, so it stops the pass here, before the
    forward turns it into NaN with a numpy warning on the way."""
    scaled = apply_scaling(trace, scaling)
    bad = ~np.isfinite(scaled.signals).all(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"record {int(np.argmax(bad))} holds a non-finite payload")
    return window_arrays(scaled, length)


def deviations_for(model: pr.PredictorModel, scaling: ScalingParams,
                   trace: Trace, variant: str, detcfg: DetectorConfig
                   ) -> tuple[np.ndarray, int]:
    """Clean-trace deviation rows to fit the variant's detector on, in the
    variant's geometry, and the trace's window count.

    ST's percentile threshold reads every window. The SVM variants are fit
    on at most detcfg.max_train_points rows, so they predict only the
    windows that _subsample's even stride keeps.
    """
    X, Y = _scaled_windows(trace, scaling, model.hyper.subsequence_length)
    n_windows = len(X)
    if variant != "ST":
        keep = _subsample(np.arange(n_windows), detcfg.max_train_points)
        X, Y = X[keep], Y[keep]
    return det.deviations(model, variant, X, Y), n_windows


def fit_detector_on(devs: np.ndarray, detcfg: DetectorConfig,
                    variant: str) -> det.OcsvmModel | det.StaticThreshold:
    """Fit a detector on precomputed clean-trace deviations.

    The kernel solver is quadratic in its training-set size, so deviations
    are thinned to detcfg.max_train_points by even striding first; rows
    from deviations_for are thinned already and pass through unchanged.
    """
    if variant == "ST":
        return det.fit_static_threshold(devs, detcfg.percentile)
    devs = _subsample(devs, detcfg.max_train_points)
    return det.fit_ocsvm(devs, nu=detcfg.nu, gamma=detcfg.gamma,
                         tol=detcfg.tol, max_iter=detcfg.max_iter)


def fit_detector(cfg: ExperimentConfig, model: pr.PredictorModel,
                 scaling: ScalingParams, trace: Trace, variant: str
                 ) -> det.OcsvmModel | det.StaticThreshold:
    """Fit the chosen variant's detector on clean-trace deviations."""
    devs, _ = deviations_for(model, scaling, trace, variant, cfg.detector)
    return fit_detector_on(devs, cfg.detector, variant)


# --------------------------------------------------------------------------
# detection


@dataclass(frozen=True)
class DetectionTable:
    """Per-record detection output over a (possibly attacked) trace.

    score is NaN for records never scored by the model (the first L, which
    have no full history window). final_flag = ml_flag OR rate_fast;
    rate_slow is kept separate because it marks the record after a gap,
    not the record itself, and is consumed by dropping-interval scoring.
    """

    message_id: int
    variant: str
    eval_from: int
    timestamps: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    ml_flag: np.ndarray
    rate_fast: np.ndarray
    rate_slow: np.ndarray
    final_flag: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


def detect_with(model: pr.PredictorModel, scaling: ScalingParams,
                detector: det.OcsvmModel | det.StaticThreshold, variant: str,
                trace: Trace, tolerance_fraction: float = 0.2
                ) -> DetectionTable:
    """Offline detection pass over a logged trace.

    Windows slide over the observed records as logged (no substitution;
    that behavior belongs to the online controller pipeline). Rate flags
    come from inter-arrival times against the schema's nominal period.
    """
    scorer = det.Scorer(model, detector, variant)
    L = model.hyper.subsequence_length
    n = len(trace)
    if n < L + 1:
        raise ValueError(f"trace of length {n} too short for window L={L}")
    fast, slow = rate_flags(trace.timestamps,
                            trace.schema.nominal_period_ms,
                            tolerance_fraction)
    X, Y = _scaled_windows(trace, scaling, L)
    tail_scores, _ = scorer.scores(X, Y)
    scores = np.full(n, np.nan)
    scores[L:] = tail_scores
    ml = np.zeros(n, dtype=np.int64)
    ml[L:] = (tail_scores < 0.0).astype(np.int64)
    final = (ml | fast).astype(np.int64)
    return DetectionTable(
        message_id=trace.schema.message_id, variant=variant, eval_from=L,
        timestamps=np.array(trace.timestamps), labels=np.array(trace.labels),
        scores=scores, ml_flag=ml, rate_fast=fast, rate_slow=slow,
        final_flag=final)


def detect(cfg: ExperimentConfig, model: pr.PredictorModel,
           scaling: ScalingParams,
           detector: det.OcsvmModel | det.StaticThreshold, variant: str,
           trace: Trace) -> DetectionTable:
    return detect_with(model, scaling, detector, variant, trace,
                       cfg.controller.tolerance_fraction)


def evaluate(table: DetectionTable, specs: list[AttackSpec]) -> mx.AttackReport:
    return mx.attack_report(table.timestamps, table.labels, table.final_flag,
                            table.scores, table.rate_slow, specs,
                            eval_from=table.eval_from)


# --------------------------------------------------------------------------
# detection-table serialization (the detect -> eval interchange file)

_TABLE_HEADER = ("timestamp,label,score,ml_flag,rate_fast,rate_slow,"
                 "final_flag")
_BITS = frozenset(("0", "1"))


def detection_csv(table: DetectionTable, provenance: dict | None = None) -> str:
    lines = [f"# {k}: {v}" for k, v in (provenance or {}).items()]
    lines.append(f"# message_id: {table.message_id:#x}")
    lines.append(f"# variant: {table.variant}")
    lines.append(f"# eval_from: {table.eval_from}")
    lines.append(_TABLE_HEADER)
    for i in range(len(table)):
        score = "" if np.isnan(table.scores[i]) else _fmt(table.scores[i])
        lines.append(
            f"{_fmt(table.timestamps[i])},{int(table.labels[i])},{score},"
            f"{int(table.ml_flag[i])},{int(table.rate_fast[i])},"
            f"{int(table.rate_slow[i])},{int(table.final_flag[i])}")
    return "\n".join(lines) + "\n"


def parse_detection_csv(text: str, path: str = "<detections>") -> DetectionTable:
    """Read a detection table back. A malformed provenance value, header or
    row, or a label or flag other than 0 and 1, raises ValueError naming
    path:line."""
    message_id = None
    variant = None
    eval_from = None
    stamps: list[float] = []
    scores: list[float] = []
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("message_id", "variant", "eval_from"):
                if body.startswith(f"{key}:"):
                    value = body.split(":", 1)[1].strip()
                    try:
                        if key == "message_id":
                            message_id = int(value, 0)
                        elif key == "variant":
                            variant = value
                        else:
                            eval_from = int(value)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: malformed {key} "
                                         f"{value!r}") from None
            continue
        if not header_seen:
            if line != _TABLE_HEADER:
                raise ValueError(f"{path}:{lineno}: bad header")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 columns")
        if fields[1] not in _BITS or not _BITS.issuperset(fields[3:]):
            raise ValueError(
                f"{path}:{lineno}: label and flags must be 0 or 1")
        try:
            stamps.append(float(fields[0]))
            scores.append(float(fields[2]) if fields[2] else np.nan)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: malformed row: {exc}") from None
        rows.append(fields)
    if message_id is None or variant is None or eval_from is None:
        raise ValueError(
            f"{path}: missing message_id/variant/eval_from provenance")
    if not rows:
        raise ValueError(f"{path}: no records")
    labels, ml, fast, slow, final = (
        np.array([r[i] == "1" for r in rows], dtype=np.int64)
        for i in (1, 3, 4, 5, 6))
    return DetectionTable(message_id=message_id, variant=variant,
                          eval_from=eval_from, timestamps=np.array(stamps),
                          labels=labels, scores=np.array(scores),
                          ml_flag=ml, rate_fast=fast, rate_slow=slow,
                          final_flag=final)


# --------------------------------------------------------------------------
# baselines


def baseline_reports(cfg: ExperimentConfig, trace: Trace,
                     specs: list[AttackSpec],
                     eval_from: int) -> dict[str, mx.AttackReport]:
    """SMA-BB, EWMA-BB, and LOF on the raw attacked trace.

    Baselines judge payloads only (no rate path); LOF is transductive,
    scoring the test records against each other. Bollinger rows carry no
    continuous score, so they have no ROC entry.
    """
    nan = np.full(len(trace), np.nan)
    zeros = np.zeros(len(trace), dtype=np.int64)
    out: dict[str, mx.AttackReport] = {}
    for name, mode in (("SMA-BB", "SMA"), ("EWMA-BB", "EWMA")):
        bcfg = bl.BollingerConfig(window=cfg.baselines.bollinger_window,
                                  band_width=cfg.baselines.bollinger_band_width,
                                  mode=mode)
        flags = bl.bollinger_message_flags(trace.signals, bcfg)
        out[name] = mx.attack_report(trace.timestamps, trace.labels, flags,
                                     nan, zeros, specs, eval_from=eval_from)
    lcfg = bl.LofConfig(k_neighbors=cfg.baselines.lof_k,
                        score_threshold=cfg.baselines.lof_threshold)
    lof = bl.lof_scores(trace.signals, lcfg)
    lof_flags = (lof > lcfg.score_threshold).astype(np.int64)
    out["LOF"] = mx.attack_report(trace.timestamps, trace.labels, lof_flags,
                                  -lof, zeros, specs, eval_from=eval_from)
    return out


# --------------------------------------------------------------------------
# full experiment (used by the acceptance suite and demos)


def run_experiment(cfg: ExperimentConfig, seed: int | None = None,
                   variants: tuple[str, ...] = ("ST", "Diff", "Sum",
                                                "Avg", "Max"),
                   with_baselines: bool = False):
    """Run the whole pipeline once; returns a dict with every artifact."""
    base = cfg.seed if seed is None else seed
    train_trace = gen_trace(cfg, "train", seed=base)
    test_clean = gen_trace(cfg, "test", seed=base)
    attacked, specs = inject(cfg, test_clean, seed=base)
    model, scaling, history = train_predictor(cfg, train_trace, seed=base)
    reports: dict[str, mx.AttackReport] = {}
    tables: dict[str, DetectionTable] = {}
    for variant in variants:
        d = fit_detector(cfg, model, scaling, train_trace, variant)
        table = detect(cfg, model, scaling, d, variant, attacked)
        tables[variant] = table
        reports[variant] = evaluate(table, specs)
    result = {
        "train_trace": train_trace, "attacked": attacked, "specs": specs,
        "model": model, "scaling": scaling, "history": history,
        "tables": tables, "reports": reports,
    }
    if with_baselines:
        result["baseline_reports"] = baseline_reports(
            cfg, attacked, specs, eval_from=cfg.hyper.subsequence_length)
    return result
