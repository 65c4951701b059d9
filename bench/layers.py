"""What the traced run wraps in `canids`, and the per-layer metrics it
reports.

Each row names one public callable, the work counts taken at its boundary,
and which of `calls` / `self_s` it reports. The metric names are
`<layer>.<function>.<stat>`; BENCHMARK.json lists the same names, and a
test keeps the two in step.
"""

from __future__ import annotations

import math
import os

import numpy as np

from spans import Target


def _rows(a, k, r):
    return {"rows": len(a[0])}


def _lstm_gflop(batch: int, d_in: int, hidden: int) -> float:
    # one fused gate matmul per input: 2 * B * 4H * (D + H) flops
    return 2.0 * batch * 4 * hidden * (d_in + hidden) / 1e9


def _lstm_forward(a, k, r):
    p, x = a[0], a[1]
    batch = x.shape[0] if x.ndim == 2 else 1
    return {"gflop": _lstm_gflop(batch, p.W_x.shape[1], p.W_h.shape[1])}


def _lstm_backward(a, k, r):
    p, x = a[0], a[1][0]
    batch = x.shape[0] if x.ndim == 2 else 1
    # weight gradients and input gradients: twice the forward matmuls
    return {"gflop": 2.0 * _lstm_gflop(batch, p.W_x.shape[1], p.W_h.shape[1])}


def _windows(a, k, r):
    return {"windows": len(a[1])}


def _train(a, k, r):
    model, train_trace = a[0], a[1]
    hyper = (a[3] if len(a) > 3 else k.get("hyper")) or model.hyper
    epochs = len(r[1].val_loss)
    windows = len(train_trace) - hyper.subsequence_length
    return {"epochs": epochs,
            "batches": epochs * math.ceil(windows / hyper.batch_size)}


def _decision_values(a, k, r):
    return {"points": len(r), "support_vectors": len(a[0].support_vectors)}


def _rbf(a, k, r):
    return {"kernel_entries": r.size}


def _fit_ocsvm(a, k, r):
    return {"n_train": r.n_train, "support_vectors": len(r.support_vectors),
            "converged": int(r.converged), "kkt_gap": r.kkt_gap}


def _run_online(a, k, r):
    kinds = [d.disposition for d in r]
    return {"frames": len(r),
            "delivered": kinds.count("Delivered"),
            "dropped_anomalous": kinds.count("DroppedAnomalous"),
            "dropped_rate": kinds.count("DroppedRateViolation"),
            "warmup": sum(d.warmup for d in r),
            "scored": sum(d.score is not None for d in r)}


def _load_trace(a, k, r):
    return {"rows": len(r), "bytes": os.path.getsize(a[0])}


def _write_trace(a, k, r):
    return {"rows": len(a[0]), "bytes": os.path.getsize(a[1])}


def _detection_csv(a, k, r):
    return {"rows": len(a[0]), "bytes": len(r.encode())}


def _parse_detection_csv(a, k, r):
    return {"rows": len(r), "bytes": len(a[0].encode())}


def _scores(values) -> np.ndarray:
    s = np.asarray(values, dtype=np.float64)
    return s[np.isfinite(s)]


def _roc_auc(a, k, r):
    s = _scores(a[1])
    return {"n_scores": len(s), "distinct_scores": len(np.unique(s))}


def _attack_report(a, k, r):
    return {"n_scores": len(_scores(a[3]))}


def _n_points(a, k, r):
    return {"n_points": len(a[0])}


def _bollinger_span(a, k):
    cfg = a[1] if len(a) > 1 else k["cfg"]
    return f"baselines.bollinger_flags-{cfg.mode}"


def _records(a, k, r):
    return {"records": len(r)}


def _file_bytes(a, k, r):
    return {"bytes": os.path.getsize(a[0])}


# (target, stats): stats lists what the layer reports besides its counts;
# rows whose calls follow from another count report self time only
_C, _S = "calls", "self_s"
_CLI_COMMANDS = ("gen", "inject", "train", "fit_detector", "detect", "eval")

TABLE: list[tuple[Target, tuple[str, ...], dict[str, tuple[str, str]]]] = [
    (Target("canids.nn", "lstm_cell_forward", _lstm_forward), (_C, _S),
     {"gflop": ("GFLOP", "lower")}),
    (Target("canids.nn", "lstm_cell_backward", _lstm_backward), (_C, _S),
     {"gflop": ("GFLOP", "lower")}),
    (Target("canids.nn", "adam_step"), (_C, _S), {}),
    (Target("canids.nn", "mse_loss"), (_C, _S), {}),
    (Target("canids.nn", "softmax"), (_C, _S), {}),
    (Target("canids.predictor", "predict_next"), (_C, _S), {}),
    (Target("canids.predictor", "predict_last_batch", _windows), (_C, _S),
     {"windows": ("count", "lower")}),
    (Target("canids.predictor", "loss_and_grads"), (_C, _S), {}),
    (Target("canids.predictor", "train", _train), (_C, _S),
     {"epochs": ("count", "lower"), "batches": ("count", "lower")}),
    (Target("canids.detector", "decision_values", _decision_values),
     (_C, _S), {"points": ("count", "lower"),
                "support_vectors": ("count", "lower")}),
    (Target("canids.detector", "rbf_kernel", _rbf), (_C, _S),
     {"kernel_entries": ("count", "lower")}),
    (Target("canids.detector", "deviation_matrix"), (_S,), {}),
    (Target("canids.detector", "fit_ocsvm", _fit_ocsvm, maxed=("kkt_gap",)),
     (_C, _S), {"n_train": ("count", "lower"),
                "support_vectors": ("count", "lower"),
                "converged": ("count", "higher"),
                "kkt_gap": ("gap", "lower")}),
    (Target("canids.controller", "run_online", _run_online), (_C, _S),
     {"frames": ("count", "higher"), "delivered": ("count", "higher"),
      "dropped_anomalous": ("count", "lower"),
      "dropped_rate": ("count", "lower"), "warmup": ("count", "lower"),
      "scored_share": ("ratio", "higher")}),
    (Target("canids.controller", "rate_check"), (_S,), {}),
    (Target("canids.controller", "HistoryBuffer.window"), (_S,), {}),
    (Target("canids.controller", "HistoryBuffer.push"), (_S,), {}),
    (Target("canids.controller", "rate_flags"), (_C, _S), {}),
    (Target("canids.traces", "load_trace", _load_trace), (_C, _S),
     {"rows": ("count", "lower"), "bytes": ("B", "lower")}),
    (Target("canids.traces", "write_trace", _write_trace), (_C, _S),
     {"rows": ("count", "lower"), "bytes": ("B", "lower")}),
    (Target("canids.traces", "apply_scaling", _rows), (_S,),
     {"rows": ("count", "lower")}),
    (Target("canids.traces", "window_arrays", _rows), (_S,),
     {"rows": ("count", "lower")}),
    (Target("canids.traces", "fit_and_scale", _rows), (_S,),
     {"rows": ("count", "lower")}),
    (Target("canids.pipeline", "detect_with"), (_C, _S), {}),
    (Target("canids.pipeline", "deviations_for"), (_C, _S), {}),
    (Target("canids.pipeline", "baseline_reports"), (_C, _S), {}),
    (Target("canids.pipeline", "detection_csv", _detection_csv), (_C, _S),
     {"rows": ("count", "lower"), "bytes": ("B", "lower")}),
    (Target("canids.pipeline", "parse_detection_csv", _parse_detection_csv),
     (_C, _S), {"rows": ("count", "lower"), "bytes": ("B", "lower")}),
    (Target("canids.metrics", "roc_auc", _roc_auc), (_C, _S),
     {"n_scores": ("count", "lower"), "distinct_scores": ("count", "lower")}),
    (Target("canids.metrics", "attack_report", _attack_report), (_C, _S),
     {"n_scores": ("count", "lower")}),
    (Target("canids.metrics", "report_text"), (_S,), {}),
    (Target("canids.metrics", "report_rows"), (_S,), {}),
    (Target("canids.metrics", "roc_csv"), (_S,), {}),
    (Target("canids.baselines", "bollinger_flags", _n_points,
            span_of=_bollinger_span), (), {}),
    (Target("canids.baselines", "lof_scores", _n_points), (_C, _S),
     {"n_points": ("count", "lower")}),
    (Target("canids.tracegen", "generate_normal", _records), (_C, _S),
     {"records": ("count", "lower")}),
    (Target("canids.tracegen", "inject_suite", _records), (_C, _S),
     {"records": ("count", "lower")}),
    (Target("canids.model_io", "save_arrays", _file_bytes), (_S,),
     {"bytes": ("B", "lower")}),
    (Target("canids.model_io", "load_arrays", _file_bytes), (_S,),
     {"bytes": ("B", "lower")}),
    (Target("canids.config", "load_config"), (_S,), {}),
] + [(Target("canids.cli", f"cmd_{c}"), (_S,), {}) for c in _CLI_COMMANDS]

# spans that a single target splits by argument
SPLIT_SPANS = {
    "baselines.bollinger_flags": [
        ("baselines.bollinger_flags-SMA", (_C, _S),
         {"n_points": ("count", "lower")}),
        ("baselines.bollinger_flags-EWMA", (_C, _S),
         {"n_points": ("count", "lower")}),
    ],
}

_STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower")}

TARGETS = [t for t, _, _ in TABLE]


def _rows_spec():
    for target, stats, counts in TABLE:
        for span, s, c in SPLIT_SPANS.get(target.span,
                                          [(target.span, stats, counts)]):
            yield span, s, c


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for span, stats, counts in _rows_spec():
        for stat in stats:
            unit, better = _STAT_UNITS[stat]
            out.append({"name": f"{span}.{stat}", "unit": unit,
                        "better": better})
        for stat, (unit, better) in counts.items():
            out.append({"name": f"{span}.{stat}", "unit": unit,
                        "better": better})
    return out


def layer_values(totals: dict[str, dict[str, float]],
                 counts: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values from span totals and recorded counts; a
    layer never called reports zeros."""
    values = {}
    for span, stats, wanted in _rows_spec():
        t = totals.get(span, {})
        c = dict(counts.get(span, {}))
        if "scored" in c:
            c["scored_share"] = c["scored"] / c["frames"] if c["frames"] \
                else 0.0
        for stat in stats:
            values[f"{span}.{stat}"] = t.get(stat, 0.0)
        for stat in wanted:
            values[f"{span}.{stat}"] = c.get(stat, 0.0)
    return values
