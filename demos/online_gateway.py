"""Frame-by-frame gateway: rate gate first, payload gate second.

A clean stream is hit with a 10x flood burst and, later, a constant spoof
on the ramp signal. The flood never reaches the model (inter-arrival gap
below 80% of the nominal period), and the spoofed payloads are dropped by
the Diff detector with the model's own prediction substituted into the
history buffer, so the attack cannot poison subsequent windows.
"""

from collections import Counter

from canids.config import load_config_dict
from canids.controller import OnlineConfig, run_online
from canids.pipeline import fit_detector, gen_trace, inject, train_predictor

FLOOD = (8.0, 9.0)
SPOOF = (14.0, 16.0)

CONFIG = {
    "seed": 5,
    "schema": {"message_id": "0x3D2", "signal_count": 2,
               "nominal_period_ms": 15.0},
    "signals": [
        {"kind": "sine", "lo": -2.0, "hi": 2.0, "amplitude": 1.5,
         "period_s": 0.705, "noise_std": 0.02},
        {"kind": "ramp-reset", "lo": 0.0, "hi": 5.0, "period_s": 0.645,
         "noise_std": 0.01},
    ],
    "generation": {"train_duration_s": 60.0, "test_duration_s": 20.0},
    "attacks": {"list": [
        {"kind": "DDoS", "t_start": FLOOD[0], "t_end": FLOOD[1],
         "multiplier": 10, "payload_mode": "repeat-last"},
        {"kind": "Constant", "t_start": SPOOF[0], "t_end": SPOOF[1],
         "target_signal": 1, "value": 7.0},
    ]},
    # the gateway feeds its own predictions back into the history buffer
    # whenever it drops a frame, so it needs a model good enough to stay
    # phase-locked through such stretches; 60 epochs gets there
    "predictor": {"subsequence_length": 8, "embed_dim": 16, "hidden_dim": 16,
                  "batch_size": 128, "learning_rate": 1e-3, "max_epochs": 60,
                  "patience": 15, "loss_mode": "all"},
    "detector": {"nu": 0.02, "max_train_points": 600},
}


def window_stats(dispositions, t0, t1):
    c = Counter(d.disposition for d in dispositions
                if t0 <= d.timestamp < t1)
    total = sum(c.values())
    return c, total


def main() -> None:
    cfg = load_config_dict(CONFIG)
    train_trace = gen_trace(cfg, "train")
    print("training the predictor (twenty seconds or so)...")
    model, scaling, _ = train_predictor(cfg, train_trace)
    detector = fit_detector(model, scaling, train_trace, "Diff",
                            cfg.detector)

    attacked, _ = inject(cfg, gen_trace(cfg, "test"))
    stream = [(float(t), attacked.signals[i])
              for i, t in enumerate(attacked.timestamps)]
    print(f"streaming {len(stream)} frames through the gateway "
          f"(flood {FLOOD[0]}-{FLOOD[1]}s, spoof {SPOOF[0]}-{SPOOF[1]}s)")
    out = run_online(stream, model, detector, "Diff", scaling,
                     cfg.schema.nominal_period_ms,
                     OnlineConfig(substitution="prediction"))

    overall = Counter(d.disposition for d in out)
    print("\ndisposition totals:")
    for name, n in sorted(overall.items()):
        print(f"  {name:<22} {n:5d}")

    for label, (t0, t1) in (("flood window", FLOOD), ("spoof window", SPOOF)):
        c, total = window_stats(out, t0, t1)
        print(f"\n{label} ({total} frames):")
        for name, n in sorted(c.items()):
            print(f"  {name:<22} {n:5d}  ({n / total:5.1%})")

    clean = [d for d in out
             if not (FLOOD[0] <= d.timestamp < FLOOD[1])
             and not (SPOOF[0] <= d.timestamp < SPOOF[1])
             and not d.warmup]
    fp = sum(d.disposition != "Delivered" for d in clean)
    print(f"\nclean frames wrongly dropped: {fp} of {len(clean)} "
          f"({fp / len(clean):.2%})")
    print("(false drops come in short runs: after any drop the buffer "
          "holds a\nprediction instead of the real value, and the next few "
          "frames are\njudged against that free-running history until it "
          "re-locks)")


if __name__ == "__main__":
    main()
