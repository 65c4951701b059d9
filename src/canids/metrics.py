"""Detection-quality accounting: confusion counts, scalar metrics, ROC/AUC,
and per-attack report assembly.

Scores follow the SVM decision-value orientation throughout: lower means
more anomalous. Ratios with a 0/0 numerator and denominator are reported
as 0 and listed in the `undefined` field instead of being silently
invented.

Dropping attacks remove records, so they cannot be scored record-wise; a
dropping interval counts as detected when an alarm fires on a record whose
preceding inter-arrival gap overlaps the interval. Those interval stats
live beside the record-based rows, never inside them, which keeps the
per-attack confusion counts additive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tracegen import AttackSpec
from .traces import table_text


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)


def confusion(labels, predictions) -> ConfusionCounts:
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape or labels.ndim != 1:
        raise ValueError("labels and predictions must be equal-length vectors")
    if len(labels) == 0:
        raise ValueError("no records to score")
    for name, a in (("labels", labels), ("predictions", predictions)):
        if not np.isin(a, (0, 1)).all():
            raise ValueError(f"{name} must be 0/1")
    return ConfusionCounts(
        tp=int(np.sum((labels == 1) & (predictions == 1))),
        tn=int(np.sum((labels == 0) & (predictions == 0))),
        fp=int(np.sum((labels == 0) & (predictions == 1))),
        fn=int(np.sum((labels == 1) & (predictions == 0))),
    )


@dataclass(frozen=True)
class ScalarMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    undefined: tuple[str, ...]
    counts: ConfusionCounts


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def metrics(c: ConfusionCounts) -> ScalarMetrics:
    """accuracy, precision, recall, F1, and false-positive rate."""
    if c.total == 0:
        raise ValueError("empty confusion counts")
    undefined: list[str] = []
    precision = _ratio(c.tp, c.tp + c.fp, "precision", undefined)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", undefined)
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        undefined.append("f1")
        f1 = 0.0
    fpr = _ratio(c.fp, c.fp + c.tn, "fpr", undefined)
    return ScalarMetrics(accuracy=(c.tp + c.tn) / c.total, precision=precision,
                         recall=recall, f1=f1, fpr=fpr,
                         undefined=tuple(undefined), counts=c)


def roc_auc(labels, scores) -> tuple[list[tuple[float, float]], float]:
    """ROC sweep and trapezoidal AUC; lower score = more anomalous.

    Tied scores move as one group, contributing a single diagonal segment,
    so the AUC equals the pairwise statistic
    P(score_anomaly < score_normal) + 1/2 P(tie).
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels and scores must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    lab = labels[order]
    # one ROC point after the last record of each group of tied scores
    group_ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(lab == 1)[group_ends]
    fp = np.cumsum(lab == 0)[group_ends]
    xs = np.concatenate([[0.0], fp / n_neg])
    ys = np.concatenate([[0.0], tp / n_pos])
    points = list(zip(xs.tolist(), ys.tolist()))
    auc = float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) * 0.5))
    return points, auc


# --------------------------------------------------------------------------
# per-attack reports


@dataclass(frozen=True)
class DroppingStats:
    intervals_total: int
    intervals_detected: int


@dataclass(frozen=True)
class AttackReport:
    overall: ScalarMetrics
    per_attack: dict[str, ScalarMetrics]  # record-based rows only
    roc_points: list[tuple[float, float]] | None
    auc: float | None
    dropping: DroppingStats | None
    n_evaluated: int
    eval_from: int


def attack_report(timestamps, labels, final_flags, scores, rate_slow,
                  specs: list[AttackSpec], eval_from: int) -> AttackReport:
    """Partition evaluated records by attack interval and score each slice.

    Records with index < eval_from (the predictor warm-up) are excluded.
    A record inside several intervals goes to the first matching spec.
    Dropping specs contribute interval stats: detected means some record's
    preceding gap overlaps the interval and that record raised any alarm
    (rate or ML).
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    final_flags = np.asarray(final_flags, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    rate_slow = np.asarray(rate_slow, dtype=np.int64)
    n = len(ts)
    if not (len(labels) == len(final_flags) == len(scores)
            == len(rate_slow) == n):
        raise ValueError("detection table columns must have equal length")
    if not 0 <= eval_from < n:
        raise ValueError(f"eval_from {eval_from} outside record range")
    evaluated = np.arange(n) >= eval_from

    assigned = np.full(n, -1)
    record_specs = [sp for sp in specs if sp.kind != "Dropping"]
    for si, sp in enumerate(record_specs):
        in_iv = (ts >= sp.t_start) & (ts < sp.t_end) & (assigned < 0)
        assigned[in_iv] = si

    per_attack: dict[str, ScalarMetrics] = {}
    kinds_seen: list[str] = []
    for si, sp in enumerate(record_specs):
        if sp.kind not in kinds_seen:
            kinds_seen.append(sp.kind)
    for kind in kinds_seen:
        mask = evaluated & np.isin(
            assigned, [si for si, sp in enumerate(record_specs)
                       if sp.kind == kind])
        if mask.any():
            per_attack[kind] = metrics(confusion(labels[mask],
                                                 final_flags[mask]))
    clean = evaluated & (assigned < 0)
    if clean.any():
        per_attack["No attack"] = metrics(confusion(labels[clean],
                                                    final_flags[clean]))

    overall = metrics(confusion(labels[evaluated], final_flags[evaluated]))

    drop_specs = [sp for sp in specs if sp.kind == "Dropping"]
    dropping = None
    if drop_specs:
        detected = 0
        gap_lo = np.concatenate([[ts[0]], ts[:-1]])
        any_alarm = (final_flags == 1) | (rate_slow == 1)
        for sp in drop_specs:
            overlap = (gap_lo < sp.t_end) & (ts > sp.t_start)
            if np.any(overlap & any_alarm):
                detected += 1
        dropping = DroppingStats(intervals_total=len(drop_specs),
                                 intervals_detected=detected)

    scored = evaluated & np.isfinite(scores)
    roc_points: list[tuple[float, float]] | None = None
    auc: float | None = None
    if scored.any():
        sl = labels[scored]
        if 0 < sl.sum() < len(sl):
            roc_points, auc = roc_auc(sl, scores[scored])
    return AttackReport(overall=overall, per_attack=per_attack,
                        roc_points=roc_points, auc=auc, dropping=dropping,
                        n_evaluated=int(evaluated.sum()), eval_from=eval_from)


# --------------------------------------------------------------------------
# rendering


_METRIC_FIELDS = ("accuracy", "precision", "recall", "f1", "fpr")


def report_rows(report: AttackReport, variant: str) -> list[tuple[str, str, str]]:
    """Machine-readable rows (metric, attack_kind, value); variant-level
    rows carry the variant name in the metric column."""
    rows: list[tuple[str, str, str]] = []
    ordered = list(report.per_attack.items()) + [("Overall", report.overall)]
    for kind, m in ordered:
        for f in _METRIC_FIELDS:
            rows.append((f, kind, f"{getattr(m, f):.6f}"))
        for f in ("tp", "tn", "fp", "fn"):
            rows.append((f, kind, str(getattr(m.counts, f))))
        if m.undefined:
            rows.append(("undefined", kind, "|".join(m.undefined)))
    if report.auc is not None:
        rows.append(("auc", "Overall", f"{report.auc:.6f}"))
    if report.dropping is not None:
        rows.append(("intervals_detected", "Dropping",
                     str(report.dropping.intervals_detected)))
        rows.append(("intervals_total", "Dropping",
                     str(report.dropping.intervals_total)))
    rows.append(("variant", "Overall", variant))
    return rows


def report_text(report: AttackReport, variant: str) -> str:
    """Human-readable per-attack table."""
    lines = [f"variant: {variant}",
             f"evaluated records: {report.n_evaluated} "
             f"(warm-up skip: first {report.eval_from})", ""]
    header = f"{'slice':<12}" + "".join(f"{f:>11}" for f in _METRIC_FIELDS) \
        + f"{'tp':>7}{'fp':>7}{'fn':>7}{'tn':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    ordered = list(report.per_attack.items()) + [("Overall", report.overall)]
    for kind, m in ordered:
        row = f"{kind:<12}" + "".join(
            f"{getattr(m, f):>11.4f}" for f in _METRIC_FIELDS)
        c = m.counts
        row += f"{c.tp:>7}{c.fp:>7}{c.fn:>7}{c.tn:>9}"
        if m.undefined:
            row += "   undefined: " + ",".join(m.undefined)
        lines.append(row)
    if report.dropping is not None:
        lines.append(
            f"{'Dropping':<12}   intervals detected "
            f"{report.dropping.intervals_detected}/"
            f"{report.dropping.intervals_total} (gap-overlap rule)")
    if report.auc is not None:
        lines.append(f"\nROC AUC (scored records): {report.auc:.4f}")
    return "\n".join(lines) + "\n"


def variant_table(reports: dict[str, AttackReport]) -> str:
    """Side-by-side comparison of variants: one row per variant."""
    lines = [f"{'variant':<10}{'F1':>9}{'accuracy':>10}{'precision':>11}"
             f"{'recall':>9}{'FPR':>9}{'AUC':>9}"]
    for name, rep in reports.items():
        m = rep.overall
        auc = f"{rep.auc:.4f}" if rep.auc is not None else "n/a"
        lines.append(f"{name:<10}{m.f1:>9.4f}{m.accuracy:>10.4f}"
                     f"{m.precision:>11.4f}{m.recall:>9.4f}{m.fpr:>9.4f}"
                     f"{auc:>9}")
    return "\n".join(lines) + "\n"


def roc_csv(points: list[tuple[float, float]]) -> str:
    """An ROC curve as an `fpr,tpr` table of `%.9g` cells. A curve repeats
    each rate along its runs, so each distinct value (by its bits, which
    keeps -0.0 apart from 0.0) is formatted once."""
    columns = []
    for axis in zip(*points):
        bits, inverse = np.unique(
            np.asarray(axis, dtype=np.float64).view(np.int64),
            return_inverse=True)
        cells = np.array([f"{v:.9g}" for v in bits.view(np.float64).tolist()],
                         dtype=object)
        columns.append(cells[inverse].tolist())
    return table_text("fpr,tpr", columns)
