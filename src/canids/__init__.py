"""CAN-bus anomaly detection.

A next-message predictor (stacked LSTM encoder/decoder with causal
self-attention) learns normal per-message-ID signal behaviour; deviations
between predicted and observed payloads feed a one-class SVM (or a simple
percentile threshold) that separates normal traffic from attacks. Synthetic
trace generation, five payload/timing attacks, classical baselines
(Bollinger bands, local outlier factor), evaluation metrics, and a
controller-side online harness round out the toolkit.
"""

from .traces import (
    MessageSchema,
    ScalingParams,
    Trace,
    apply_scaling,
    fit_and_scale,
    load_scaling,
    load_trace,
    save_scaling,
    split_train_val,
    window_arrays,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "MessageSchema",
    "ScalingParams",
    "Trace",
    "apply_scaling",
    "fit_and_scale",
    "load_scaling",
    "load_trace",
    "save_scaling",
    "split_train_val",
    "window_arrays",
    "write_trace",
    "__version__",
]
