"""End-to-end pipeline stages: seeding, suite expansion, detection tables,
interchange CSV, full experiment runs."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from canids import detector as det
from canids import metrics, pipeline
from canids import predictor as pr
from canids.baselines import LofConfig, lof_scores
from canids.config import load_config_dict
from canids.detector import OcsvmModel, StaticThreshold
from canids.metrics import AttackReport
from canids.pipeline import (
    DetectionTable,
    _subsample,
    baseline_reports,
    detect_with,
    detection_csv,
    deviations_for,
    evaluate,
    expand_attacks,
    fit_detector,
    gen_trace,
    inject,
    parse_detection_csv,
    run_experiment,
    stage_seed,
    train_predictor,
)
from canids.predictor import PredictorHyper, build_model, predict_last_batch
from canids.traces import apply_scaling, fit_and_scale, window_arrays


def _toy_cfg(**overrides):
    doc = {
        "seed": 7,
        "schema": {"message_id": "0x101", "signal_count": 2,
                   "nominal_period_ms": 15.0},
        "signals": [
            {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
             "period_s": 0.8, "noise_std": 0.02},
            {"kind": "random-walk", "lo": 0.0, "hi": 10.0, "step_std": 0.05},
        ],
        "generation": {"train_duration_s": 20.0, "test_duration_s": 15.0},
        "attacks": {"suite": "default", "target_signal": 0},
        "predictor": {"subsequence_length": 8, "embed_dim": 8,
                      "hidden_dim": 8, "batch_size": 64,
                      "learning_rate": 0.001, "max_epochs": 3,
                      "patience": 2},
        "detector": {"nu": 0.05, "max_train_points": 300},
        "baselines": {"lof_k": 10},
    }
    doc.update(overrides)
    return load_config_dict(doc)


CFG = _toy_cfg()


class TestStageSeed:
    def test_deterministic(self):
        assert stage_seed(7, "inject") == stage_seed(7, "inject")

    def test_stages_are_independent(self):
        seeds = {stage_seed(7, s) for s in
                 ("gen-train", "gen-test", "inject", "model-init")}
        assert len(seeds) == 4

    def test_base_seeds_are_independent(self):
        assert stage_seed(7, "inject") != stage_seed(8, "inject")

    def test_range(self):
        for s in ("a", "b", "c"):
            assert 0 <= stage_seed(123, s) < 2 ** 63


class TestGenTrace:
    def test_roles_use_their_durations_and_seeds(self):
        train = gen_trace(CFG, "train")
        test = gen_trace(CFG, "test")
        period = CFG.schema.nominal_period_s
        assert len(train) == int(20.0 / period)
        assert len(test) == int(15.0 / period)
        # different stage seeds: the traces are not prefixes of each other
        m = min(len(train), len(test))
        assert not np.allclose(train.signals[:m], test.signals[:m])

    def test_deterministic(self):
        a = gen_trace(CFG, "test")
        b = gen_trace(CFG, "test")
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_explicit_seed_overrides_config(self):
        a = gen_trace(dataclasses.replace(CFG, seed=1), "test")
        b = gen_trace(dataclasses.replace(CFG, seed=2), "test")
        assert not np.array_equal(a.signals, b.signals)

    def test_bad_role(self):
        with pytest.raises(ValueError, match="role"):
            gen_trace(CFG, "validation")


class TestExpandAttacks:
    def test_default_suite_layout(self):
        trace = gen_trace(CFG, "test")
        specs = expand_attacks(CFG, trace)
        assert [sp.kind for sp in specs] == [
            "Constant", "Continuous", "Replay", "Dropping", "DDoS"]
        t0 = float(trace.timestamps[0])
        span = (float(trace.timestamps[-1])
                + trace.schema.nominal_period_s - t0)
        const = specs[0]
        assert const.t_start == pytest.approx(t0 + 0.10 * span)
        assert const.t_end == pytest.approx(t0 + 0.20 * span)
        # intervals are disjoint and inside the trace
        for a, b in zip(specs, specs[1:]):
            assert a.t_end <= b.t_start
        assert specs[-1].t_end < t0 + span

    def test_suite_values_scale_with_observed_range(self):
        trace = gen_trace(CFG, "test")
        specs = expand_attacks(CFG, trace)
        sig = trace.signals[:, 0]
        lo, hi = sig.min(), sig.max()
        rng = hi - lo
        assert specs[0].value == pytest.approx(hi + 0.25 * rng)
        assert specs[1].increment == pytest.approx(0.002 * rng)
        assert specs[1].target == pytest.approx(hi + 0.3 * rng)
        assert specs[4].multiplier == 10

    def test_replay_source_precedes_target(self):
        trace = gen_trace(CFG, "test")
        rp = expand_attacks(CFG, trace)[2]
        assert rp.source_start == pytest.approx(float(trace.timestamps[0]))
        assert rp.source_end <= rp.t_start

    def test_explicit_list_passes_through(self):
        cfg = _toy_cfg(attacks={"list": [
            {"kind": "Dropping", "t_start": 5.0, "t_end": 6.0}]})
        trace = gen_trace(cfg, "test")
        specs = expand_attacks(cfg, trace)
        assert len(specs) == 1
        assert specs[0].kind == "Dropping"
        assert specs[0].t_start == 5.0


class TestInject:
    def test_deterministic_and_labeled(self):
        trace = gen_trace(CFG, "test")
        a1, specs1 = inject(CFG, trace)
        a2, specs2 = inject(CFG, trace)
        assert np.array_equal(a1.signals, a2.signals)
        assert np.array_equal(a1.labels, a2.labels)
        assert specs1 == specs2
        assert a1.labels.sum() > 0

    def test_labeled_records_sit_inside_attack_intervals(self):
        trace = gen_trace(CFG, "test")
        attacked, specs = inject(CFG, trace)
        ts = attacked.timestamps[attacked.labels == 1]
        record_specs = [sp for sp in specs if sp.kind != "Dropping"]
        for t in ts:
            assert any(sp.t_start <= t < sp.t_end for sp in record_specs)


class TestTrainPredictor:
    def test_shapes_and_scaling(self):
        trace = gen_trace(CFG, "train")
        model, scaling, history = train_predictor(CFG, trace)
        assert model.k == 2
        # scaling is fit on the full trace, before the split
        assert np.allclose(scaling.mins, trace.signals.min(axis=0))
        assert np.allclose(scaling.maxs, trace.signals.max(axis=0))
        assert 1 <= len(history.val_loss) <= CFG.hyper.max_epochs
        assert history.best_epoch >= 0


class TestSubsample:
    def test_short_input_passes_through(self):
        X = np.arange(10.0)[:, None]
        assert _subsample(X, 20) is X

    def test_even_stride_keeps_ends(self):
        X = np.arange(100.0)[:, None]
        out = _subsample(X, 10)
        assert len(out) <= 10
        assert out[0, 0] == 0.0
        assert out[-1, 0] == 99.0
        assert np.all(np.diff(out[:, 0]) > 0)


@pytest.fixture(scope="module")
def trained():
    trace = gen_trace(CFG, "train")
    model, scaling, _ = train_predictor(CFG, trace)
    return trace, model, scaling


def _svm_fields(d: OcsvmModel) -> list[bytes]:
    return [np.asarray(getattr(d, f.name)).tobytes()
            for f in dataclasses.fields(d)]


def _all_window_route(model, scaling, trace, variant, detcfg):
    """The fit as it was before thinning moved ahead of the forward: every
    window predicted, then the deviations strided down to the cap."""
    X, Y = window_arrays(apply_scaling(trace, scaling),
                         model.hyper.subsequence_length)
    all_devs = det.deviation_matrix(predict_last_batch(model, X), Y, variant)
    if variant == "ST":
        return all_devs, det.fit_static_threshold(all_devs, detcfg.percentile)
    devs = _subsample(all_devs, detcfg.max_train_points)
    return all_devs, det.fit_ocsvm(devs, nu=detcfg.nu, gamma=detcfg.gamma,
                                   tol=detcfg.tol, max_iter=detcfg.max_iter)


def _predicted_rows(call):
    """Run call() and count the windows it hands to predict_last_batch."""
    with mock.patch.object(pr, "predict_last_batch",
                           wraps=predict_last_batch) as spy:
        out = call()
    return out, sum(len(c.args[1]) for c in spy.call_args_list)


class TestDeviationsAndDetectors:
    def test_deviation_geometry(self, trained):
        trace, model, scaling = trained
        n = len(trace) - model.hyper.subsequence_length
        cap = CFG.detector.max_train_points
        assert n > cap
        assert deviations_for(model, scaling, trace, "ST",
                              CFG.detector).shape == (n, 1)
        assert deviations_for(model, scaling, trace, "Diff",
                              CFG.detector).shape == (cap, 2)
        for variant in ("Sum", "Avg", "Max"):
            assert deviations_for(model, scaling, trace, variant,
                                  CFG.detector).shape == (cap, 1)

    @pytest.mark.parametrize("variant", ["Diff", "Sum", "Avg", "Max"])
    def test_svm_variants_predict_only_the_strided_windows(self, trained,
                                                           variant):
        trace, model, scaling = trained
        cap = CFG.detector.max_train_points
        _, rows = _predicted_rows(
            lambda: fit_detector(model, scaling, trace, variant,
                                 CFG.detector))
        assert rows == cap < len(trace) - model.hyper.subsequence_length

    def test_st_predicts_every_window(self, trained):
        trace, model, scaling = trained
        _, rows = _predicted_rows(
            lambda: fit_detector(model, scaling, trace, "ST",
                                 CFG.detector))
        assert rows == len(trace) - model.hyper.subsequence_length

    @pytest.mark.parametrize("variant", ["Diff", "Sum", "Avg", "Max"])
    def test_thinned_fit_equals_the_all_window_route(self, trained, variant):
        trace, model, scaling = trained
        all_devs, expected = _all_window_route(model, scaling, trace,
                                               variant, CFG.detector)
        devs = deviations_for(model, scaling, trace, variant, CFG.detector)
        assert devs.tobytes() == _subsample(
            all_devs, CFG.detector.max_train_points).tobytes()
        got = fit_detector(model, scaling, trace, variant, CFG.detector)
        assert _svm_fields(got) == _svm_fields(expected)

    def test_st_fit_equals_the_all_window_route(self, trained):
        trace, model, scaling = trained
        _, expected = _all_window_route(model, scaling, trace, "ST",
                                        CFG.detector)
        assert fit_detector(model, scaling, trace, "ST",
                            CFG.detector) == expected

    # the two bench architectures on their training-trace lengths and caps:
    # the small model's 3,000 records thinned to 800, the default model's
    # 1,000 records (L=32) to 400
    @pytest.mark.parametrize("hyper, records, cap", [
        (PredictorHyper(subsequence_length=8, embed_dim=16, hidden_dim=16),
         3000, 800),
        (PredictorHyper(), 1000, 400),
    ], ids=["small", "default"])
    def test_thinned_fit_equals_the_all_window_route_at_bench_shapes(
            self, hyper, records, cap):
        cfg = _toy_cfg(
            schema={"message_id": "0x101", "signal_count": 3,
                    "nominal_period_ms": 15.0},
            signals=[{"kind": "sine", "lo": -2.0, "hi": 2.0,
                      "amplitude": 1.5, "period_s": 0.8, "noise_std": 0.02},
                     {"kind": "random-walk", "lo": 0.0, "hi": 10.0,
                      "step_std": 0.05},
                     {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0,
                      "period_s": 0.645, "noise_std": 0.01}],
            generation={"train_duration_s": records * 0.015,
                        "test_duration_s": 15.0},
            detector={"nu": 0.01, "max_train_points": cap})
        trace = gen_trace(cfg, "train")
        _, scaling = fit_and_scale(trace)
        model = build_model(3, hyper, seed=11)
        for variant in ("Diff", "Max"):
            _, expected = _all_window_route(model, scaling, trace, variant,
                                            cfg.detector)
            got, rows = _predicted_rows(
                lambda: fit_detector(model, scaling, trace, variant,
                                     cfg.detector))
            assert rows == cap
            assert _svm_fields(got) == _svm_fields(expected)

    def test_fit_detector_kinds(self, trained):
        trace, model, scaling = trained
        st = fit_detector(model, scaling, trace, "ST", CFG.detector)
        assert isinstance(st, StaticThreshold)
        svm = fit_detector(model, scaling, trace, "Diff", CFG.detector)
        assert isinstance(svm, OcsvmModel)
        # the trace has more windows than the cap, so the SVM gets the cap
        assert svm.n_train == CFG.detector.max_train_points

    def test_fit_detector_on_respects_cap(self, trained):
        trace, model, scaling = trained
        cap = CFG.detector.max_train_points
        assert len(trace) - model.hyper.subsequence_length > cap
        svm = fit_detector(model, scaling, trace, "Sum", CFG.detector)
        assert svm.n_train == cap


class TestDetect:
    def test_table_invariants(self, trained):
        trace, model, scaling = trained
        attacked, specs = inject(CFG, gen_trace(CFG, "test"))
        d = fit_detector(model, scaling, trace, "Diff", CFG.detector)
        table = detect_with(model, scaling, d, "Diff", attacked)
        L = model.hyper.subsequence_length
        n = len(attacked)
        assert len(table) == n
        assert table.eval_from == L
        assert table.variant == "Diff"
        assert table.message_id == 0x101
        assert np.isnan(table.scores[:L]).all()
        assert np.isfinite(table.scores[L:]).all()
        assert np.array_equal(table.final_flag,
                              table.ml_flag | table.rate_fast)
        assert np.array_equal(table.ml_flag[L:],
                              (table.scores[L:] < 0).astype(int))
        assert table.ml_flag[:L].sum() == 0

    def test_variant_detector_mismatch_rejected(self, trained):
        trace, model, scaling = trained
        st = fit_detector(model, scaling, trace, "ST", CFG.detector)
        svm = fit_detector(model, scaling, trace, "Diff", CFG.detector)
        with pytest.raises(ValueError, match="StaticThreshold"):
            detect_with(model, scaling, svm, "ST", trace)
        with pytest.raises(ValueError, match="OcsvmModel"):
            detect_with(model, scaling, st, "Diff", trace)

    def test_short_trace_rejected(self, trained):
        trace, model, scaling = trained
        st = fit_detector(model, scaling, trace, "ST", CFG.detector)
        short = gen_trace(_toy_cfg(generation={"train_duration_s": 20.0,
                                               "test_duration_s": 0.1}),
                          "test")  # 6 records < L+1
        with pytest.raises(ValueError, match="too short"):
            detect_with(model, scaling, st, "ST", short)

    def test_non_finite_stamp_rejected(self, trained):
        # a NaN stamp between a record and the flood frame 0.1 ms after it
        # would hide the flood from rate_flags, so no Trace may carry one
        trace, model, scaling = trained
        st = fit_detector(model, scaling, trace, "ST", CFG.detector)
        stamps = trace.timestamps.copy()
        stamps[21:23] = [np.nan, stamps[20] + 0.0001]
        with pytest.raises(ValueError, match="finite"):
            detect_with(model, scaling, st, "ST",
                        dataclasses.replace(trace, timestamps=stamps))

    def test_evaluate_returns_report(self, trained):
        trace, model, scaling = trained
        attacked, specs = inject(CFG, gen_trace(CFG, "test"))
        d = fit_detector(model, scaling, trace, "ST", CFG.detector)
        table = detect_with(model, scaling, d, "ST", attacked)
        rep = evaluate(table, specs)
        assert isinstance(rep, AttackReport)
        assert rep.eval_from == table.eval_from
        assert rep.dropping is not None


def _tiny_table():
    return DetectionTable(
        message_id=0x55, variant="Diff", eval_from=2,
        timestamps=np.array([0.0, 0.015, 0.030, 0.045]),
        labels=np.array([0, 0, 1, 0]),
        scores=np.array([np.nan, np.nan, -0.5, 0.125]),
        ml_flag=np.array([0, 0, 1, 0]),
        rate_fast=np.array([0, 0, 0, 1]),
        rate_slow=np.array([0, 0, 0, 0]),
        final_flag=np.array([0, 0, 1, 1]))


class TestDetectionCsv:
    def test_round_trip(self):
        t = _tiny_table()
        text = detection_csv(t, provenance={"tool": "canids"})
        back = parse_detection_csv(text)
        assert back.message_id == 0x55
        assert back.variant == "Diff"
        assert back.eval_from == 2
        assert np.allclose(back.timestamps, t.timestamps)
        assert np.array_equal(back.labels, t.labels)
        assert np.isnan(back.scores[:2]).all()
        assert back.scores[2] == -0.5
        assert back.scores[3] == 0.125
        for col in ("ml_flag", "rate_fast", "rate_slow", "final_flag"):
            assert np.array_equal(getattr(back, col), getattr(t, col))

    def test_epoch_timestamps_and_scores_round_trip(self):
        n = 2000
        rng = np.random.default_rng(3)
        zeros = np.zeros(n, dtype=np.int64)
        scores = rng.normal(size=n)
        scores[:2] = np.nan
        t = DetectionTable(
            message_id=0x55, variant="Diff", eval_from=2,
            timestamps=1.7e9 + np.arange(n) * 0.015, labels=zeros,
            scores=scores, ml_flag=zeros, rate_fast=zeros, rate_slow=zeros,
            final_flag=zeros)
        back = parse_detection_csv(detection_csv(t))
        assert np.array_equal(back.timestamps, t.timestamps)
        assert np.array_equal(back.scores, t.scores, equal_nan=True)

    def test_header_required(self):
        text = ("# message_id: 0x55\n# variant: Diff\n# eval_from: 2\n"
                "time,label\n")
        with pytest.raises(ValueError, match="bad header"):
            parse_detection_csv(text, "x.csv")

    def test_column_count_enforced(self):
        t = _tiny_table()
        text = detection_csv(t)
        text += "1.0,0,0.5\n"
        with pytest.raises(ValueError, match="7 columns"):
            parse_detection_csv(text)

    @pytest.mark.parametrize("row, match", [
        ("1.0,0,x,0,0,0,0", r"x\.csv:9: malformed row"),
        ("1.0.0,0,,0,0,0,0", r"x\.csv:9: malformed row"),
        ("1.0,0.5,,0,0,0,0", r"x\.csv:9: label and flags must be 0 or 1"),
        ("1.0,2,,0,0,0,0", r"x\.csv:9: label and flags must be 0 or 1"),
        ("1.0,0,,0,0,0,-1", r"x\.csv:9: label and flags must be 0 or 1"),
        (f"1.0,{2**70},,0,0,0,0", r"x\.csv:9: label and flags"),
    ])
    def test_malformed_row_names_its_line(self, row, match):
        # the tiny table takes lines 1-8: three provenance lines, the
        # header and four rows
        text = detection_csv(_tiny_table()) + row + "\n"
        with pytest.raises(ValueError, match=match):
            parse_detection_csv(text, "x.csv")

    @pytest.mark.parametrize("line", ["# message_id: 0x5g",
                                      "# eval_from: two",
                                      "# variant: Diff/x"])
    def test_malformed_provenance_names_its_line(self, line):
        # every occurrence is checked, not only the last, which is valid
        text = line + "\n" + detection_csv(_tiny_table())
        with pytest.raises(ValueError, match=r"x\.csv:1: malformed"):
            parse_detection_csv(text, "x.csv")

    @pytest.mark.parametrize("eval_from", [-1, 4])
    def test_eval_from_outside_the_records_names_the_file(self, eval_from):
        t = dataclasses.replace(_tiny_table(), eval_from=eval_from)
        with pytest.raises(ValueError, match=r"x\.csv: eval_from .* outside"):
            parse_detection_csv(detection_csv(t), "x.csv")

    def test_provenance_required(self):
        t = _tiny_table()
        lines = [ln for ln in detection_csv(t).splitlines()
                 if not ln.startswith("# variant")]
        with pytest.raises(ValueError, match="provenance"):
            parse_detection_csv("\n".join(lines))

    def test_empty_table_rejected(self):
        text = ("# message_id: 0x55\n# variant: Diff\n# eval_from: 2\n"
                + "timestamp,label,score,ml_flag,rate_fast,rate_slow,"
                + "final_flag\n")
        with pytest.raises(ValueError, match="no records"):
            parse_detection_csv(text)


class TestBaselineReports:
    def test_keys_and_types(self):
        attacked, specs = inject(CFG, gen_trace(CFG, "test"))
        reports = baseline_reports(CFG, attacked, specs, eval_from=8)
        assert set(reports) == {"SMA-BB", "EWMA-BB", "LOF"}
        for rep in reports.values():
            assert isinstance(rep, AttackReport)
            assert rep.eval_from == 8
        # bollinger has no scores, LOF does
        assert reports["SMA-BB"].auc is None
        assert reports["LOF"].auc is not None

    def test_lof_flags_scores_strictly_above_threshold(self):
        attacked, specs = inject(CFG, gen_trace(CFG, "test"))
        with mock.patch.object(pipeline.mx, "attack_report",
                               wraps=metrics.attack_report) as report:
            baseline_reports(CFG, attacked, specs, eval_from=8)
        flags, neg_scores = report.call_args_list[-1].args[2:4]
        thr = CFG.baselines.lof_threshold
        lof = lof_scores(attacked.signals, LofConfig(
            k_neighbors=CFG.baselines.lof_k, score_threshold=thr))
        assert np.array_equal(neg_scores, -lof)
        assert np.array_equal(flags, (lof > thr).astype(np.int64))
        assert 0 < flags.sum() < len(flags)


class TestRunExperiment:
    def test_full_run_artifacts(self):
        result = run_experiment(CFG, variants=("ST", "Diff"))
        assert set(result) == {"train_trace", "attacked", "specs", "model",
                               "scaling", "history", "tables", "reports"}
        assert set(result["tables"]) == {"ST", "Diff"}
        assert set(result["reports"]) == {"ST", "Diff"}
        baselines = baseline_reports(CFG, result["attacked"], result["specs"],
                                     eval_from=CFG.hyper.subsequence_length)
        assert set(baselines) == {"SMA-BB", "EWMA-BB", "LOF"}
        for table in result["tables"].values():
            assert len(table) == len(result["attacked"])
        for rep in result["reports"].values():
            assert rep.overall.counts.total == rep.n_evaluated
