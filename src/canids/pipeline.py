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
from .controller import DEFAULT_TOLERANCE, rate_flags
from .tracegen import AttackSpec, generate_normal, inject_suite
from .traces import (
    ScalingParams,
    Trace,
    apply_scaling,
    convert_block,
    fit_and_scale,
    float_cells,
    int_cells,
    read_table,
    split_train_val,
    table_text,
    window_arrays,
)


def stage_seed(base_seed: int, stage: str) -> int:
    """Stable per-stage seed: hash of base seed and stage name."""
    digest = hashlib.sha256(f"{base_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


# --------------------------------------------------------------------------
# generation / injection


def gen_trace(cfg: ExperimentConfig, role: str) -> Trace:
    """Generate the clean trace for a role ('train' or 'test'): the
    role's duration from cfg.generation, its seed from cfg.seed. Another
    seed or duration is another config, `dataclasses.replace(cfg, ...)`."""
    if role not in ("train", "test"):
        raise ValueError("role must be 'train' or 'test'")
    duration = (cfg.generation.train_duration_s if role == "train"
                else cfg.generation.test_duration_s)
    return generate_normal(cfg.schema, list(cfg.signals), duration,
                           seed=stage_seed(cfg.seed, f"gen-{role}"))


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


def inject(cfg: ExperimentConfig,
           trace: Trace) -> tuple[Trace, list[AttackSpec]]:
    specs = expand_attacks(cfg, trace)
    attacked = inject_suite(trace, specs, seed=stage_seed(cfg.seed, "inject"))
    return attacked, specs


# --------------------------------------------------------------------------
# training


def train_predictor(cfg: ExperimentConfig, trace: Trace
                    ) -> tuple[pr.PredictorModel, ScalingParams, pr.TrainHistory]:
    """Scale the normal trace, split chronologically, fit the predictor."""
    scaled, scaling = fit_and_scale(trace)
    train_part, val_part = split_train_val(scaled, cfg.train_ratio)
    model = pr.build_model(cfg.schema.signal_count, cfg.hyper,
                           seed=stage_seed(cfg.seed, "model-init"))
    trained, history = pr.train(model, train_part, val_part)
    return trained, scaling, history


def _subsample(X: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic even-stride subsample down to at most cap rows."""
    if len(X) <= cap:
        return X
    idx = np.unique(np.linspace(0, len(X) - 1, cap).astype(np.int64))
    return X[idx]


def _predict_windows(model: pr.PredictorModel, scaling: ScalingParams,
                     trace: Trace, cap: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The model's next-row predictions for the trace's windows, and the
    scaled rows they predict, both (N, k). With a cap, only the at most
    cap windows that _subsample's even stride keeps are predicted.

    A NaN or infinite payload would poison every window it enters, so it
    stops the pass before the forward turns it into NaN with a numpy
    warning on the way.
    """
    scaled = apply_scaling(trace, scaling)
    _require_finite(scaled.signals)
    X, Y = window_arrays(scaled, model.hyper.subsequence_length)
    if cap is not None:
        keep = _subsample(np.arange(len(X)), cap)
        X, Y = X[keep], Y[keep]
    return pr.predict_last_batch(model, X), Y


def _require_finite(signals: np.ndarray) -> None:
    """Raise FloatingPointError naming the first record whose payload holds
    a NaN or an infinity."""
    bad = ~np.isfinite(signals).all(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"record {int(np.argmax(bad))} holds a non-finite payload")


def deviations_for(model: pr.PredictorModel, scaling: ScalingParams,
                   trace: Trace, variant: str, detcfg: DetectorConfig
                   ) -> np.ndarray:
    """Clean-trace deviation rows to fit the variant's detector on, in the
    variant's geometry.

    ST's percentile threshold reads every window. The kernel solver is
    quadratic in its training-set size, so the SVM variants are fit on at
    most detcfg.max_train_points rows and predict only the windows that
    _subsample's even stride keeps.
    """
    cap = None if variant == "ST" else detcfg.max_train_points
    preds, targets = _predict_windows(model, scaling, trace, cap)
    return det.deviation_matrix(preds, targets, variant)


def fit_detector(model: pr.PredictorModel, scaling: ScalingParams,
                 trace: Trace, variant: str, detcfg: DetectorConfig
                 ) -> det.OcsvmModel | det.StaticThreshold:
    """Fit the variant's detector on the deviations of a clean trace."""
    devs = deviations_for(model, scaling, trace, variant, detcfg)
    if variant == "ST":
        return det.fit_static_threshold(devs, detcfg.percentile)
    return det.fit_ocsvm(devs, nu=detcfg.nu, gamma=detcfg.gamma,
                         tol=detcfg.tol, max_iter=detcfg.max_iter)


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
                trace: Trace, tolerance_fraction: float = DEFAULT_TOLERANCE
                ) -> DetectionTable:
    """Offline detection pass over a logged trace.

    Windows slide over the observed records as logged (no substitution;
    that behavior belongs to the online controller pipeline). Rate flags
    come from inter-arrival times against the schema's nominal period.
    """
    scorer = det.Scorer(detector, variant, model.k)
    L = model.hyper.subsequence_length
    n = len(trace)
    if n < L + 1:
        raise ValueError(f"trace of length {n} too short for window L={L}")
    fast, slow = rate_flags(trace.timestamps,
                            trace.schema.nominal_period_ms,
                            tolerance_fraction)
    tail_scores = scorer.scores(*_predict_windows(model, scaling, trace))
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


def evaluate(table: DetectionTable, specs: list[AttackSpec]) -> mx.AttackReport:
    return mx.attack_report(table.timestamps, table.labels, table.final_flag,
                            table.scores, table.rate_slow, specs,
                            eval_from=table.eval_from)


# --------------------------------------------------------------------------
# detection-table serialization (the detect -> eval interchange file)

_TABLE_HEADER = ("timestamp,label,score,ml_flag,rate_fast,rate_slow,"
                 "final_flag")
_BITS = frozenset(("0", "1"))


def _variant(value: str) -> str:
    # eval names its report files after the variant
    if value not in det.VARIANTS:
        raise ValueError(value)
    return value


# the provenance keys a detection table needs, and how each value parses
_TABLE_KEYS = {"message_id": lambda v: int(v, 0), "variant": _variant,
               "eval_from": int}


def detection_csv(table: DetectionTable, provenance: dict | None = None) -> str:
    """The detection table in its documented CSV form; an unscored record
    has an empty score cell."""
    prov = {**(provenance or {}), "message_id": f"{table.message_id:#x}",
            "variant": table.variant, "eval_from": table.eval_from}
    scores = float_cells(table.scores)
    for i in np.flatnonzero(np.isnan(table.scores)).tolist():
        scores[i] = ""
    columns = [float_cells(table.timestamps), int_cells(table.labels), scores,
               *map(int_cells, (table.ml_flag, table.rate_fast,
                                table.rate_slow, table.final_flag))]
    return table_text(_TABLE_HEADER, columns, prov)


def _bit_array(cells: list[str]) -> np.ndarray:
    """A column of '0' and '1' cells as 0/1 integers."""
    return (np.frombuffer("".join(cells).encode(), dtype=np.uint8)
            == ord("1")).astype(np.int64)


def _detection_columns(columns: list[list[str]]) -> tuple:
    """A block's timestamps, scores and (label and flag) bits, converted a
    column at a time; the bits are checked first, then the floats
    parsed."""
    stamps, label, score, *flags = columns
    bits = (label, *flags)
    if not all(map(_BITS.issuperset, bits)):
        raise ValueError("label and flags must be 0 or 1")
    try:
        ts = np.array(list(map(float, stamps)))
        scores = np.array(list(map(float, [c or "nan" for c in score])))
    except ValueError as exc:
        raise ValueError(f"malformed row: {exc}") from None
    return ts, scores, np.array([_bit_array(col) for col in bits])


def parse_detection_csv(text: str, path: str = "<detections>") -> DetectionTable:
    """Read a detection table back. Besides what `read_table` rejects, a
    malformed provenance value (a variant not in VARIANTS included) or row,
    or a label or flag other than 0 and 1, raises ValueError naming
    path:line; an eval_from outside the records raises one naming path."""
    comments, parts = [], []
    for block in read_table(path, _TABLE_HEADER, 7, text=text):
        comments += block.comments
        parts.append(convert_block(path, block, _detection_columns))
    prov = {}
    for lineno, key, value in comments:
        if key in _TABLE_KEYS:
            try:
                prov[key] = _TABLE_KEYS[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed {key} "
                                 f"{value!r}") from None
    if len(prov) != len(_TABLE_KEYS):
        raise ValueError(
            f"{path}: missing message_id/variant/eval_from provenance")
    stamps, scores, bits = (np.concatenate(c, axis=-1) for c in zip(*parts))
    if not 0 <= prov["eval_from"] < len(stamps):
        raise ValueError(f"{path}: eval_from {prov['eval_from']} is outside "
                         f"the {len(stamps)} records")
    labels, ml, fast, slow, final = bits
    return DetectionTable(**prov, timestamps=stamps, labels=labels,
                          scores=scores, ml_flag=ml, rate_fast=fast,
                          rate_slow=slow, final_flag=final)


# --------------------------------------------------------------------------
# baselines


def baseline_reports(cfg: ExperimentConfig, trace: Trace,
                     specs: list[AttackSpec],
                     eval_from: int) -> dict[str, mx.AttackReport]:
    """SMA-BB, EWMA-BB, and LOF on the raw attacked trace.

    Baselines judge payloads only (no rate path); LOF is transductive,
    scoring the test records against each other. Bollinger rows carry no
    continuous score, so they have no ROC entry. A NaN or infinite payload
    raises FloatingPointError before any baseline runs.
    """
    _require_finite(trace.signals)
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


def run_experiment(cfg: ExperimentConfig,
                   variants: tuple[str, ...] = det.VARIANTS):
    """Run the whole pipeline once, seeded by cfg.seed; returns a dict
    with every artifact. The baselines are `baseline_reports` on the
    result's attacked trace and specs."""
    train_trace = gen_trace(cfg, "train")
    attacked, specs = inject(cfg, gen_trace(cfg, "test"))
    model, scaling, history = train_predictor(cfg, train_trace)
    reports: dict[str, mx.AttackReport] = {}
    tables: dict[str, DetectionTable] = {}
    for variant in variants:
        d = fit_detector(model, scaling, train_trace, variant, cfg.detector)
        table = detect_with(model, scaling, d, variant, attacked)
        tables[variant] = table
        reports[variant] = evaluate(table, specs)
    return {
        "train_trace": train_trace, "attacked": attacked, "specs": specs,
        "model": model, "scaling": scaling, "history": history,
        "tables": tables, "reports": reports,
    }
