"""Confusion metrics, ROC/AUC against the pairwise oracle, attack reports."""

import numpy as np
import pytest

from canids.metrics import (
    AttackReport,
    ConfusionCounts,
    attack_report,
    confusion,
    metrics,
    report_rows,
    report_text,
    roc_auc,
    roc_csv,
    variant_table,
)
from canids.tracegen import AttackSpec

from oracles import pairwise_auc


class TestConfusion:
    def test_hand_example(self):
        c = confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_addition(self):
        a = ConfusionCounts(tp=1, tn=2, fp=3, fn=4)
        b = ConfusionCounts(tp=10, tn=20, fp=30, fn=40)
        s = a + b
        assert (s.tp, s.tn, s.fp, s.fn) == (11, 22, 33, 44)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)
        with pytest.raises(ValueError):
            confusion([], [])
        with pytest.raises(ValueError):
            confusion([0, 2], [0, 1])
        with pytest.raises(ValueError):
            confusion([0, 1], [0, 1, 1])


class TestScalarMetrics:
    def test_hand_example(self):
        m = metrics(ConfusionCounts(tp=8, fp=2, fn=2, tn=88))
        assert m.accuracy == pytest.approx(0.96)
        assert m.precision == pytest.approx(0.8)
        assert m.recall == pytest.approx(0.8)
        assert m.f1 == pytest.approx(0.8)
        assert m.fpr == pytest.approx(2.0 / 90.0)
        assert m.undefined == ()

    def test_all_negative_slice_marks_undefined(self):
        # no positives anywhere: precision, recall, f1 are 0/0
        m = metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert set(m.undefined) == {"precision", "recall", "f1"}
        assert m.fpr == 0.0
        assert m.accuracy == 1.0

    def test_all_positive_slice_marks_fpr_undefined(self):
        m = metrics(ConfusionCounts(tp=5, fp=0, fn=5, tn=0))
        assert "fpr" in m.undefined
        assert m.fpr == 0.0
        assert m.recall == pytest.approx(0.5)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionCounts())


def _roc_auc_loop(labels, scores):
    """The ROC sweep as a Python loop over tie groups: the reference that
    the vectorized `roc_auc` must reproduce exactly."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    lab = labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        tp += int(np.sum(lab[i:j] == 1))
        fp += int(np.sum(lab[i:j] == 0))
        points.append((fp / n_neg, tp / n_pos))
        i = j
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) * 0.5))
    return points, auc


class TestRocAuc:
    def test_perfect_separation(self):
        # anomalies (label 1) hold the lowest scores
        labels = [1, 1, 0, 0]
        scores = [0.1, 0.2, 0.8, 0.9]
        points, auc = roc_auc(labels, scores)
        assert auc == pytest.approx(1.0)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_reversed_scores_give_zero(self):
        _, auc = roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert auc == pytest.approx(0.0)

    def test_all_tied_scores_give_half(self):
        points, auc = roc_auc([1, 0, 1, 0], [5.0, 5.0, 5.0, 5.0])
        assert auc == pytest.approx(0.5)
        # one tie group, one diagonal segment
        assert points == [(0.0, 0.0), (1.0, 1.0)]

    def test_hand_counted_pairs(self):
        # pairs (anomaly, normal): (0.1,0.5) correct, (0.5,0.5) tie ->
        # AUC = (1 + 0.5) / 2... with 1 anomaly vs 2 normals: scores
        # anomaly 0.3 vs normals 0.5, 0.3 -> 1 win + 1 half = 0.75
        labels = [1, 0, 0]
        scores = [0.3, 0.5, 0.3]
        _, auc = roc_auc(labels, scores)
        assert auc == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        labels = (rng.random(n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores produce plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        _, auc = roc_auc(labels, scores)
        assert auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_points_and_auc_equal_the_group_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        # few distinct values, so most scores sit in large tie groups;
        # -0.0 and 0.0 compare equal and must form one group
        scores = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=n)
        points, auc = roc_auc(labels, scores)
        ref_points, ref_auc = _roc_auc_loop(labels, scores)
        assert points == ref_points
        assert auc == ref_auc
        assert all(type(x) is float and type(y) is float for x, y in points)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(99)
        labels = np.array([1] * 20 + [0] * 40)
        scores = rng.normal(size=60)
        _, a = roc_auc(labels, scores)
        _, b = roc_auc(labels, scores ** 3)  # strictly increasing on R
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([1, 1], [0.1, 0.2])
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0, 0], [0.1, 0.2])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([1, 0], [np.nan, 0.5])

    def test_roc_csv_renders_points(self):
        text = roc_csv([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)])
        lines = text.strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0,0"
        assert lines[2] == "0.5,1"

    @pytest.mark.parametrize("seed", range(6))
    def test_roc_csv_matches_formatting_every_cell(self, seed):
        # coarse scores make long runs of one rate and many tied groups;
        # -0.0 and NaN check that distinct bits keep distinct cells
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int)
        labels[:2] = [0, 1]
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 4)))
        points, _ = roc_auc(labels, scores)
        points += [(-0.0, 0.0), (0.0, -0.0), (np.nan, 1 / 3), (1 / 3, np.nan)]
        reference = "fpr,tpr\n" + "".join(
            f"{x:.9g},{y:.9g}\n" for x, y in points)
        assert roc_csv(points) == reference

    def test_roc_csv_of_no_points_is_the_header(self):
        assert roc_csv([]) == "fpr,tpr\n"


def _toy_table():
    """Ten records at 10 ms spacing; one Constant interval over records
    4..6, the rest clean."""
    ts = np.arange(10) * 0.01
    spec = AttackSpec(kind="Constant", t_start=0.04, t_end=0.07,
                      target_signal=0, value=1.0)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    flags = np.array([0, 0, 0, 0, 1, 1, 0, 1, 0, 0])  # one fn, one fp
    scores = np.where(flags == 1, -1.0, 1.0).astype(float)
    rate_slow = np.zeros(10, dtype=int)
    return ts, labels, flags, scores, rate_slow, [spec]


class TestAttackReport:
    def test_partition_and_rows(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        assert rep.n_evaluated == 8
        assert set(rep.per_attack) == {"Constant", "No attack"}
        atk = rep.per_attack["Constant"].counts
        assert (atk.tp, atk.fn) == (2, 1)
        clean = rep.per_attack["No attack"].counts
        assert (clean.fp, clean.tn) == (1, 4)

    def test_rows_add_up_to_overall(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        summed = ConfusionCounts()
        for m in rep.per_attack.values():
            summed = summed + m.counts
        assert summed == rep.overall.counts
        assert rep.overall.counts.total == rep.n_evaluated

    def test_eval_from_excludes_warmup(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        flags = flags.copy()
        flags[0] = 1  # would be a false positive, but sits in the warm-up
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        assert rep.per_attack["No attack"].counts.fp == 1

    def test_dropping_interval_detected_by_gap_overlap(self):
        # records at 10 ms, with 0.04..0.08 missing: the 0.08 record's
        # preceding gap covers the dropped interval
        ts = np.array([0.00, 0.01, 0.02, 0.03, 0.08, 0.09])
        labels = np.zeros(6, dtype=int)
        flags = np.zeros(6, dtype=int)
        scores = np.ones(6)
        rate_slow = np.array([0, 0, 0, 0, 1, 0])
        spec = AttackSpec(kind="Dropping", t_start=0.035, t_end=0.075)
        rep = attack_report(ts, labels, flags, scores, rate_slow, [spec],
                            eval_from=0)
        assert rep.dropping is not None
        assert rep.dropping.intervals_total == 1
        assert rep.dropping.intervals_detected == 1
        # dropping produces no record-based row
        assert set(rep.per_attack) == {"No attack"}

    def test_dropping_interval_missed_without_alarm(self):
        ts = np.array([0.00, 0.01, 0.02, 0.03, 0.08, 0.09])
        rep = attack_report(ts, np.zeros(6, int), np.zeros(6, int),
                            np.ones(6), np.zeros(6, int),
                            [AttackSpec(kind="Dropping", t_start=0.035,
                                        t_end=0.075)], eval_from=0)
        assert rep.dropping.intervals_detected == 0

    def test_auc_skips_nan_scores_and_single_class(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        scores = scores.copy()
        scores[:2] = np.nan  # warm-up rows carry no score
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        assert rep.auc is not None
        clean_rep = attack_report(ts, np.zeros(10, int), flags,
                                  scores, rate_slow, [], eval_from=2)
        assert clean_rep.auc is None
        assert clean_rep.roc_points is None

    def test_eval_from_validation(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        with pytest.raises(ValueError, match="eval_from"):
            attack_report(ts, labels, flags, scores, rate_slow, specs,
                          eval_from=10)


class TestRendering:
    def test_report_text_names_rows(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        text = report_text(rep, "Diff")
        assert "Constant" in text
        assert "No attack" in text
        assert "Overall" in text
        assert "Diff" in text

    def test_report_rows_are_csv_ready(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        rows = report_rows(rep, "Diff")
        assert all(len(r) == 3 for r in rows)
        metrics_seen = {r[0] for r in rows}
        assert {"accuracy", "precision", "recall", "f1", "fpr"} <= metrics_seen

    def test_variant_table_lists_all_variants(self):
        ts, labels, flags, scores, rate_slow, specs = _toy_table()
        rep = attack_report(ts, labels, flags, scores, rate_slow, specs,
                            eval_from=2)
        table = variant_table({"Diff": rep, "ST": rep})
        assert "Diff" in table and "ST" in table
