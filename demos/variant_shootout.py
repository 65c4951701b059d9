"""Head-to-head run of the five detector variants on one seeded scenario.

Same trained predictor, same attacked trace, five ways of reading the
prediction error: ST thresholds the largest per-signal deviation at a
training-set percentile, Diff hands the full deviation vector to a
one-class SVM,
and Sum/Avg/Max collapse it to a scalar first.

Runs in roughly a minute (one predictor fit, five detector fits).
"""

from canids.config import load_config_dict
from canids.metrics import variant_table
from canids.pipeline import run_experiment

VARIANTS = ("ST", "Diff", "Sum", "Avg", "Max")

# deterministic signals with periods phase-locked to the 15 ms grid
# (47, 43, 61 samples), so the predictor can actually learn the dynamics
CONFIG = {
    "seed": 0,
    "schema": {"message_id": "0x1A0", "signal_count": 3,
               "nominal_period_ms": 15.0},
    "signals": [
        {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
         "period_s": 0.705, "noise_std": 0.02},
        {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
         "noise_std": 0.01},
        {"kind": "sine", "lo": -2.5, "hi": 2.5, "amplitude": 2.0,
         "period_s": 0.915, "noise_std": 0.02},
    ],
    "generation": {"train_duration_s": 90.0, "test_duration_s": 60.0},
    "attacks": {"suite": "default", "target_signal": 1},
    "predictor": {"subsequence_length": 8, "embed_dim": 16, "hidden_dim": 16,
                  "batch_size": 128, "learning_rate": 1e-3, "max_epochs": 50,
                  "patience": 10, "loss_mode": "all"},
    "detector": {"nu": 0.05, "max_train_points": 800},
}


def main() -> None:
    cfg = load_config_dict(CONFIG)
    print("training one predictor, then fitting all five variants...")
    result = run_experiment(cfg, variants=VARIANTS)
    print()
    print(variant_table(result["reports"]))
    print()
    f1 = {v: result["reports"][v].overall.f1 for v in VARIANTS}
    best = max(f1, key=f1.get)
    print(f"best overall F1: {best} ({f1[best]:.4f})")
    print("Diff keeps the per-signal structure of the error vector, so an "
          "attack\nthat skews one signal while the others stay clean is "
          "still separable;\nthe scalar reductions blur that away.")


if __name__ == "__main__":
    main()
