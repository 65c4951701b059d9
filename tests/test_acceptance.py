"""Go/no-go acceptance checks, one per numbered criterion.

Each test prints a single [PASS]/[FAIL] line; run the suite with

    pytest tests/test_acceptance.py -v -s

The predictor-learning check (criterion 4) and the ordering checks (5-7)
train real models and together take roughly ten minutes of CPU time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from canids.config import load_config_dict
from canids.controller import RateCheckerState, rate_check, rate_flags
from canids.detector import decision_values, fit_ocsvm, rbf_kernel
from canids.metrics import roc_auc
from canids.pipeline import (baseline_reports, detect_with, evaluate,
                             fit_detector, gen_trace, inject, train_predictor)
from canids.predictor import (PredictorHyper, build_model, load_model_file,
                              loss_and_grads, parameter_count_note,
                              save_model, train)
from canids.tracegen import SignalGenSpec, generate_normal
from canids.traces import (MessageSchema, fit_and_scale, load_trace,
                           split_train_val, window_arrays, write_trace)

from oracles import grad_check, pairwise_auc, persistence_mse, qp_ocsvm_oracle


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): "
          f"{detail}", flush=True)
    assert ok, f"criterion {num} {label}: {detail}"


# --------------------------------------------------------------------------
# shared scenario for the ordering criteria (5, 6, 7): one model per seed,
# three attacked traces per seed (default suite / continuous-only /
# constant-only). All signals are deterministic-plus-noise so training
# quality is consistent across seeds; periods are 47, 43, and 61 frame
# steps, none of which divides the replay shift.

_SIGNALS = [
    {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
     "period_s": 0.705, "noise_std": 0.02},
    {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
     "noise_std": 0.01},
    {"kind": "sine", "lo": -2.5, "hi": 2.5, "amplitude": 2.0,
     "period_s": 0.915, "noise_std": 0.02},
]
_BASE = {
    "seed": 0,
    "schema": {"message_id": "0x101", "signal_count": 3,
               "nominal_period_ms": 15.0},
    "signals": _SIGNALS,
    "generation": {"train_duration_s": 90.0, "test_duration_s": 60.0},
    "attacks": {"suite": "default", "target_signal": 1},
    "predictor": {"subsequence_length": 8, "embed_dim": 16, "hidden_dim": 16,
                  "batch_size": 128, "learning_rate": 1e-3, "max_epochs": 50,
                  "patience": 10, "loss_mode": "all"},
    "detector": {"nu": 0.05, "max_train_points": 800},
}
_VARIANTS = ("ST", "Diff", "Sum", "Avg", "Max")
_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def ordering_runs():
    cfg = load_config_dict(_BASE)
    cont_doc = dict(_BASE)
    cont_doc["attacks"] = {"list": [
        {"kind": "Continuous", "t_start": 20.0, "t_end": 26.0,
         "target_signal": 0, "increment": 0.02, "target": 3.5}]}
    cfg_cont = load_config_dict(cont_doc)
    const_doc = dict(_BASE)
    const_doc["attacks"] = {"list": [
        {"kind": "Constant", "t_start": 20.0, "t_end": 26.0,
         "target_signal": 1, "value": 6.25}]}
    cfg_const = load_config_dict(const_doc)

    f1 = {v: [] for v in _VARIANTS}
    f1_cont = {name: [] for name in ("Diff", "SMA-BB", "EWMA-BB", "LOF")}
    auc_const = []
    for seed in _SEEDS:
        cfg, cfg_cont, cfg_const = (replace(c, seed=seed)
                                    for c in (cfg, cfg_cont, cfg_const))
        train_trace = gen_trace(cfg, "train")
        test_clean = gen_trace(cfg, "test")
        model, scaling, _ = train_predictor(cfg, train_trace)
        attacked, specs = inject(cfg, test_clean)
        for variant in _VARIANTS:
            d = fit_detector(model, scaling, train_trace, variant,
                             cfg.detector)
            table = detect_with(model, scaling, d, variant, attacked)
            f1[variant].append(evaluate(table, specs).overall.f1)
        att_c, specs_c = inject(cfg_cont, test_clean)
        d = fit_detector(model, scaling, train_trace, "Diff",
                         cfg_cont.detector)
        rep = evaluate(detect_with(model, scaling, d, "Diff", att_c),
                       specs_c)
        f1_cont["Diff"].append(rep.overall.f1)
        for name, brep in baseline_reports(cfg_cont, att_c, specs_c,
                                           eval_from=8).items():
            f1_cont[name].append(brep.overall.f1)
        att_k, specs_k = inject(cfg_const, test_clean)
        d = fit_detector(model, scaling, train_trace, "Diff",
                         cfg_const.detector)
        rep_k = evaluate(detect_with(model, scaling, d, "Diff", att_k),
                         specs_k)
        auc_const.append(rep_k.auc)
    return {"f1": f1, "f1_cont": f1_cont, "auc_const": auc_const}


# --------------------------------------------------------------------------


def test_c01_gradient_correctness():
    t0 = time.monotonic()
    hyper = PredictorHyper(subsequence_length=4, embed_dim=8, hidden_dim=8,
                           batch_size=8, learning_rate=1e-3, max_epochs=2,
                           patience=1)
    model = build_model(k=2, hyper=hyper, seed=3)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2, 4, 2)) * 0.5
    Y = rng.normal(size=(2, 2)) * 0.3

    def fn(params):
        return loss_and_grads(params, X, Y, "last")

    # h=1e-4: deep-block gradients are ~1e-7, smaller steps put the central
    # differences in roundoff territory
    errs = grad_check(fn, model.params, h=1e-4)
    worst_block = max(errs, key=errs.get)
    worst = errs[worst_block]
    dt = time.monotonic() - t0
    _verdict(1, "gradient correctness", worst < 1e-4 and dt < 60.0,
             f"worst rel err {worst:.2e} ({worst_block}), "
             f"{len(errs)} blocks, {dt:.1f}s")


def test_c02_ocsvm_oracle_equivalence():
    t0 = time.monotonic()
    worst_alpha = worst_rho = 0.0
    grid_agree = True
    for i in range(20):
        n = 15 + (i * 3) % 11
        d = 1 + i % 3
        nu = (0.1, 0.3, 0.5)[(i // 3) % 3]
        rng = np.random.default_rng(i)
        X = rng.normal(size=(n, d))
        model = fit_ocsvm(X, nu=nu, tol=1e-6)
        assert model.converged
        K = rbf_kernel(X, X, model.gamma)
        ref = qp_ocsvm_oracle(K, nu)
        assert ref is not None, f"oracle failed to certify instance {i}"
        alpha_ref, rho_ref = ref
        full = np.zeros(n)
        j = 0
        for r, row in enumerate(X):
            if j < len(model.support_vectors) and np.array_equal(
                    row, model.support_vectors[j]):
                full[r] = model.alphas[j]
                j += 1
        assert j == len(model.support_vectors)
        worst_alpha = max(worst_alpha, float(np.max(np.abs(full - alpha_ref))))
        worst_rho = max(worst_rho, abs(model.rho - rho_ref))
        grid = np.random.default_rng(1000 + i).uniform(-3, 3, size=(100, d))
        f_model = decision_values(model, grid)
        f_ref = (rbf_kernel(grid, X, model.gamma) @ alpha_ref) - rho_ref
        if not np.array_equal(f_model < 0, f_ref < 0):
            grid_agree = False
    dt = time.monotonic() - t0
    ok = worst_alpha < 1e-3 and worst_rho < 1e-3 and grid_agree and dt < 60.0
    _verdict(2, "OCSVM oracle equivalence",
             ok, f"20 instances, max|dalpha| {worst_alpha:.2e}, "
             f"max|drho| {worst_rho:.2e}, grid signs "
             f"{'100%' if grid_agree else 'MISMATCH'}, {dt:.1f}s")


def test_c03_nu_property():
    n, nu = 200, 0.1
    X = np.random.default_rng(6).normal(size=(n, 2))
    model = fit_ocsvm(X, nu=nu, tol=1e-5)
    outlier_frac = float(np.mean(decision_values(model, X) < 0.0))
    sv_frac = len(model.alphas) / n
    ok = (outlier_frac <= nu + 1.0 / n + 1e-12
          and sv_frac >= nu - 1.0 / n - 1e-12)
    _verdict(3, "nu-property", ok,
             f"outliers {outlier_frac:.3f} <= {nu + 1/n:.3f}, "
             f"SVs {sv_frac:.3f} >= {nu - 1/n:.3f}")


def test_c04_predictor_learning():
    t0 = time.monotonic()
    schema = MessageSchema(message_id=0x200, signal_count=3,
                           nominal_period_ms=15.0)
    gens = [
        SignalGenSpec(kind="sine", lo=-2.0, hi=2.0, amplitude=1.5,
                      period_s=0.75, noise_std=0.02),
        SignalGenSpec(kind="ramp-reset", lo=0.0, hi=5.0, period_s=0.6,
                      noise_std=0.01),
        SignalGenSpec(kind="random-walk", lo=0.0, hi=10.0, step_std=0.05),
    ]
    trace = generate_normal(schema, gens, duration=300.0, seed=101)
    assert len(trace) == 20_000
    scaled, _ = fit_and_scale(trace)
    tr, va = split_train_val(scaled, 0.8)
    X_va, Y_va = window_arrays(va, 8)
    floor = persistence_mse(X_va, Y_va)

    # decaying-rate schedule: three warm-started fits
    best = np.inf
    model = None
    for lr, n_epochs in ((3e-3, 30), (1e-3, 30), (3e-4, 25)):
        hyper = PredictorHyper(subsequence_length=8, embed_dim=32,
                               hidden_dim=32, batch_size=128,
                               learning_rate=lr, max_epochs=n_epochs,
                               patience=n_epochs - 1, loss_mode="all")
        model = (build_model(k=3, hyper=hyper, seed=101) if model is None
                 else replace(model, hyper=hyper))
        model, hist = train(model, tr, va)
        best = min(best, min(hist.val_loss))
    dt = time.monotonic() - t0
    ok = best < 0.25 * floor and dt < 900.0
    _verdict(4, "predictor learning", ok,
             f"val MSE {best:.3e} vs persistence {floor:.3e} "
             f"(ratio {best / floor:.3f}, need < 0.25), {dt:.0f}s")


def test_c05_variant_ordering(ordering_runs):
    f1 = ordering_runs["f1"]
    means = {v: float(np.mean(f1[v])) for v in _VARIANTS}
    ok = all(means["Diff"] >= means[v] for v in _VARIANTS if v != "Diff")
    _verdict(5, "variant ordering", ok,
             "mean F1 " + ", ".join(f"{v} {means[v]:.4f}"
                                    for v in _VARIANTS))


def test_c06_baseline_ordering(ordering_runs):
    cont = ordering_runs["f1_cont"]
    ok = all(cont["Diff"][i] >= cont[b][i]
             for i in range(len(_SEEDS))
             for b in ("SMA-BB", "EWMA-BB", "LOF"))
    per_seed = ", ".join(
        f"seed {s}: Diff {cont['Diff'][i]:.3f} vs best baseline "
        f"{max(cont[b][i] for b in ('SMA-BB', 'EWMA-BB', 'LOF')):.3f}"
        for i, s in enumerate(_SEEDS))
    _verdict(6, "baseline ordering", ok, per_seed)


def test_c07_strong_attack_auc(ordering_runs):
    aucs = ordering_runs["auc_const"]
    ok = all(a is not None and a >= 0.9 for a in aucs)
    _verdict(7, "constant-attack AUC floor", ok,
             "per-seed AUC " + ", ".join(f"{a:.4f}" for a in aucs))


def test_c08_rate_precheck():
    # flood onset: 50 clean frames at 15 ms, then 10x rate
    period_s = 0.015
    clean = np.arange(50) * period_s
    onset = clean[-1] + period_s / 10.0
    flood = onset + np.arange(30) * (period_s / 10.0)
    state = RateCheckerState(expected_period_ms=15.0, tolerance_fraction=0.2)
    frames_to_flag = None
    for i, ts in enumerate(np.concatenate([clean, flood])):
        if rate_check(state, float(ts)) == "too_fast" and i >= 50:
            frames_to_flag = i - 50 + 1
            break
    big = np.arange(10_000) * period_s
    fast, slow = rate_flags(big, 15.0, 0.2)
    violations = int(fast.sum() + slow.sum())
    ok = frames_to_flag is not None and frames_to_flag <= 3 and violations == 0
    _verdict(8, "DDoS pre-check", ok,
             f"flood flagged after {frames_to_flag} frame(s); "
             f"{violations} violations in 10000 clean frames")


def test_c09_auc_oracle():
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(s)
        n = 60
        labels = np.zeros(n, dtype=np.int64)
        labels[: n // 3] = 1
        rng.shuffle(labels)
        scores = rng.normal(size=n)
        if s >= 25:  # tie-heavy half
            scores = np.round(scores, 1)
        _, auc = roc_auc(labels, scores)
        worst = max(worst, abs(auc - pairwise_auc(labels, scores)))
    _verdict(9, "AUC oracle", worst < 1e-9,
             f"max |trapezoid - pairwise| {worst:.2e} over 50 sets")


def test_c10_determinism_and_round_trips(tmp_path):
    doc = {
        "seed": 7,
        "schema": {"message_id": "0x55", "signal_count": 2,
                   "nominal_period_ms": 15.0},
        "signals": [
            {"kind": "sine", "lo": -1.0, "hi": 1.0, "amplitude": 0.8,
             "period_s": 0.5, "noise_std": 0.02},
            {"kind": "random-walk", "lo": 0.0, "hi": 4.0, "step_std": 0.05},
        ],
        "generation": {"train_duration_s": 12.0, "test_duration_s": 6.0},
        "predictor": {"subsequence_length": 8, "embed_dim": 8,
                      "hidden_dim": 8, "batch_size": 64,
                      "learning_rate": 1e-3, "max_epochs": 3, "patience": 2},
    }
    cfg = load_config_dict(doc)
    trace = gen_trace(cfg, "train")
    meta = {"provenance": {"config_hash": "deadbeefdeadbeef", "seed": 7}}
    paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
    for p in paths:
        model, _, _ = train_predictor(cfg, trace)
        save_model(model, p, extra_meta=meta)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    loaded, _ = load_model_file(paths[0])
    model_exact = all(np.array_equal(loaded.params[n], model.params[n])
                      for n in model.params)

    tp = tmp_path / "t.csv"
    write_trace(trace, tp, provenance={"config_hash": "deadbeefdeadbeef",
                                       "seed": 7})
    back = load_trace(tp, trace.schema)
    trace_exact = (np.array_equal(back.timestamps, trace.timestamps)
                   and np.array_equal(back.signals, trace.signals)
                   and np.array_equal(back.labels, trace.labels))
    write_trace(back, tmp_path / "t2.csv",
                provenance={"config_hash": "deadbeefdeadbeef", "seed": 7})
    trace_bytes = (tmp_path / "t2.csv").read_bytes() == tp.read_bytes()
    ok = identical and model_exact and trace_exact and trace_bytes
    _verdict(10, "determinism and round-trips", ok,
             f"model files identical: {identical}, model round-trip exact: "
             f"{model_exact}, trace round-trip exact: "
             f"{trace_exact and trace_bytes}")


def test_c11_parameter_count_report():
    model = build_model(k=3, hyper=PredictorHyper(), seed=0)
    k, E, H = 3, 128, 64
    hand = ((k * E + E)                   # embed
            + 4 * H * (E + H + 1)         # encoder LSTM 1 (E -> H)
            + 3 * (4 * H * (2 * H + 1))   # encoder 2 + decoder 1/2 (H -> H)
            + (H * H + H)                 # attention score projection
            + (2 * H * H + H)             # combine [h; phi] -> H
            + (k * H + k))                # output layer H -> k
    note = parameter_count_note(model)
    ok = (model.parameter_count() == hand == 161_603
          and "161603" in note and "331" in note)
    _verdict(11, "parameter count report", ok,
             f"build_model {model.parameter_count()}, closed form {hand}, "
             f"note carries the 331x10^3 reference: {'331' in note}")
