"""End-to-end walk: synthesize CAN traffic, inject the five-attack suite,
train the predictor, and score the Diff detector.

Takes well under a minute; every step is seeded, so reruns print the same
numbers.
"""

from canids.config import load_config_dict
from canids.metrics import report_text
from canids.pipeline import run_experiment

CONFIG = {
    "seed": 42,
    "schema": {"message_id": "0x244", "signal_count": 2,
               "nominal_period_ms": 15.0},
    "signals": [
        {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
         "period_s": 0.705, "noise_std": 0.02},
        {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
         "noise_std": 0.01},
    ],
    "generation": {"train_duration_s": 40.0, "test_duration_s": 30.0},
    "attacks": {"suite": "default", "target_signal": 1},
    "predictor": {"subsequence_length": 8, "embed_dim": 16, "hidden_dim": 16,
                  "batch_size": 128, "learning_rate": 1e-3, "max_epochs": 30,
                  "patience": 8, "loss_mode": "all"},
    "detector": {"nu": 0.05, "max_train_points": 600},
}


def main() -> None:
    cfg = load_config_dict(CONFIG)
    print("running gen -> inject -> train -> fit-detector -> detect -> eval")
    result = run_experiment(cfg, variants=("Diff",))

    hist = result["history"]
    print(f"\ntrained {len(hist.val_loss)} epochs "
          f"({hist.stop_reason}); best val MSE "
          f"{min(hist.val_loss):.2e} at epoch {hist.best_epoch}")
    n_attacked = int((result["attacked"].labels > 0).sum())
    print(f"attacked test trace: {len(result['attacked'])} records, "
          f"{n_attacked} of them injected or overwritten")
    print("\ninjected attack windows:")
    for spec in result["specs"]:
        print(f"  {spec.kind:<10} [{spec.t_start:7.3f}, {spec.t_end:7.3f})")
    print()
    print(report_text(result["reports"]["Diff"], "Diff"))
    print("reading the table: flood frames repeat legitimate payloads, so "
          "the\npayload path scores them normal by design; the rate gate is "
          "what\ncatches them (and drives the DDoS row). They also dominate "
          "the pooled\nROC above, which is why it sits near chance; the "
          "per-attack slices are\nthe meaningful view. Replay payloads are "
          "valid states too; only their\nphase mismatch gives them away, "
          "which is why that row tracks model\nquality so closely.")


if __name__ == "__main__":
    main()
